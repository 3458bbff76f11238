"""The experiment suite scripts: a short run of each, and their usage errors."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, instances",
    [("run_genericity_suite", "instance_gallery"), ("run_larman_suite", "polytope_gallery")],
)
def test_suite_writes_one_csv_per_instance(name, instances, tmp_path, capsys):
    script = load(name)
    assert script.main(["--trials", "3", "--outdir", str(tmp_path)]) == 0
    expected = sorted(f"{entry[0]}.csv" for entry in getattr(script, instances)())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for path in tmp_path.iterdir():
        assert len(path.read_text().splitlines()) >= 4  # header and 3 trials


@pytest.mark.parametrize("name", ["run_genericity_suite", "run_larman_suite"])
@pytest.mark.parametrize(
    "bad",
    [
        ["--bits", "200"],
        ["--bits", "7"],
        ["--radius", "0"],
        ["--radius", "0.5"],
        ["--jobs", "2"],
        ["--trials", "-1"],
        *([flag, token] for flag in ("--trials", "--seed", "--bits") for token in ("1_0", "+3", "\u0663")),
    ],
)
def test_suite_bad_settings_are_usage_errors(name, bad, tmp_path, capsys):
    script = load(name)
    with pytest.raises(SystemExit) as exc:
        script.main(["--trials", "1", "--outdir", str(tmp_path), *bad])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
