"""The experiment suite scripts, the benchmark pair script and the CLI fuzz:
a short run of each, and their usage errors; the suites run as scripts, and
the benchmark's traced cycles and its own tests, each in a process of its
own."""

import importlib.util
import json
import subprocess
import sys
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
        ["--outdir", __file__],  # an existing file, not a directory
    ],
)
def test_suite_bad_settings_are_usage_errors(name, bad, tmp_path, capsys):
    script = load(name)
    with pytest.raises(SystemExit) as exc:
        script.main(["--trials", "1", "--outdir", str(tmp_path), *bad])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


ROOT = SCRIPTS.parent


def python(*argv, cwd):
    argv = [sys.executable, *map(str, argv)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name, csvs", [("genericity", 10), ("larman", 3)])
def test_suite_runs_as_a_script_from_another_directory(name, csvs, tmp_path):
    """Run by path from outside the checkout, a suite finds its settings
    helper and the library, exits 0 and writes one CSV per instance; a bad
    setting exits 2 and creates no ``--outdir``."""
    script = SCRIPTS / f"run_{name}_suite.py"
    done = python(script, "--trials", "3", "--outdir", "out", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(list((tmp_path / "out").glob("*.csv"))) == csvs
    done = python(script, "--bits", "7", "--outdir", "bad", cwd=tmp_path)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("workload", ["genericity", "adversarial", "prox"])
def test_a_traced_benchmark_cycle_finds_every_traced_function(workload):
    """``run.py --trace 1`` runs an untraced and a traced cycle and checks
    the outputs of both; a traced library function it cannot find is
    reported as ``absent:``, and the verdict is the last line."""
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"]
    done = python(ROOT / "perfbench" / "run.py", *argv, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert "absent:" not in done.stdout
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_the_benchmark_tests_pass():
    """In a process of their own: ``run.load_library`` drops every
    ``nondegen`` module from ``sys.modules``, which would leave this
    session's tests holding classes of a discarded import."""
    done = python("-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider", cwd=ROOT)
    assert done.returncode == 0, done.stdout[-2000:]


def test_bench_pairs_alternates_the_sides_and_summarises_them(tmp_path, capsys):
    """Two one-cycle genericity pairs of the checkout against itself."""
    out = tmp_path / "bench.json"
    bench = load("bench_pairs")
    argv = [str(ROOT), str(ROOT), "--workload", "genericity", "--seeds", "0-1", "--seconds", "0", "--out", str(out)]
    assert bench.main(argv) == 0
    data = json.loads(out.read_text())
    assert list(data) == ["what", "summary", "runs"]
    assert [(r["side"], r["stamp"]["seed"]) for r in data["runs"]] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
    ]
    assert all(r["result"]["correct"] and r["stamp"]["seconds"] == 0 for r in data["runs"])
    end_to_end = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    summary = data["summary"]["genericity"]
    assert list(summary) == end_to_end
    for name in end_to_end:
        assert summary[name]["parent"]["runs"] == summary[name]["change"]["runs"] == 2
        assert summary[name]["change_wins"] in ("0/2", "1/2", "2/2")
    # a traced pair is kept with the others and left out of the summary
    traced = [str(ROOT), str(ROOT), "--workload", "genericity", "--seeds", "2", "--seconds", "0", "--trace", "1"]
    assert bench.main(traced + ["--out", str(out), "--append"]) == 0
    appended = json.loads(out.read_text())
    assert appended["runs"][:4] == data["runs"] and appended["summary"] == data["summary"]
    assert appended["what"] == data["what"]
    assert [(r["side"], r["stamp"]["trace"]) for r in appended["runs"][4:]] == [("parent", 1), ("change", 1)]


def test_bench_pairs_reproduces_a_recorded_summary():
    """The summary of BENCH_10.json, written before the script existed, is
    the script's summary of that file's runs."""
    bench = load("bench_pairs")
    recorded = json.loads((ROOT / "BENCH_10.json").read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench.summarize(recorded["runs"], end_to_end) == recorded["summary"]


FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
trace = int(sys.argv[sys.argv.index("--trace") + 1])
if seed == 1:
    sys.exit("seed 1 fails")
names = [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
print("stamp " + json.dumps({"workload": "genericity", "seed": seed, "trace": trace, "commit": "fake"}))
print(json.dumps({"attempted": 1, "correct": True, "metrics": {n: {"value": seed} for n in names}}))
"""


def _checkout(root, run=FAKE_RUN):
    """``root`` as a checkout whose ``perfbench/run.py`` is ``run``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run)
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return root


@pytest.fixture
def fake_checkout(tmp_path):
    """A checkout whose ``perfbench/run.py`` answers at once, and fails on
    seed 1."""
    return _checkout(tmp_path / "checkout")


def test_bench_pairs_names_a_side_without_a_commit_by_its_source(tmp_path, capsys):
    """Two checkouts without ``.git``, whose stamps read ``"commit":
    "unknown"``, are told apart in ``what`` by directory name and source
    digest; a bytecode cache does not change the digest."""
    bench = load("bench_pairs")
    roots = []
    for side in ("parent", "change"):
        root = _checkout(tmp_path / side, FAKE_RUN.replace('"fake"', '"unknown"'))
        (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (root / "src" / "pkg" / "mod.py").write_text(f"SIDE = {side!r}\n")
        roots.append(root.resolve())
    digest = bench.src_digest(roots[0])
    (roots[0] / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"cache")
    assert bench.src_digest(roots[0]) == digest != bench.src_digest(roots[1])
    out = tmp_path / "bench.json"
    assert bench.main([*map(str, roots), "--workload", "genericity", "--seeds", "0", "--out", str(out)]) == 0
    parent, change = (f"{root.name} (src sha256 {bench.src_digest(root)[:12]})" for root in roots)
    assert json.loads(out.read_text())["what"].endswith(f"parent {parent}, change {change}.")


def test_bench_pairs_keeps_the_pairs_before_a_failed_run(fake_checkout, tmp_path, capsys):
    out = tmp_path / "bench.json"
    argv = [str(fake_checkout)] * 2 + ["--workload", "genericity", "--seeds", "0-1", "--out", str(out)]
    assert load("bench_pairs").main(argv) == 1
    assert "seed 1 fails" in capsys.readouterr().err
    data = json.loads(out.read_text())
    assert [(r["side"], r["stamp"]["seed"]) for r in data["runs"]] == [("parent", 0), ("change", 0)]
    assert data["summary"]["genericity"]["ops_per_s"]["change_wins"] == "0/1"


def test_bench_pairs_stops_at_a_run_whose_output_check_failed(fake_checkout, tmp_path, capsys):
    """A run that ends with ``"correct": false`` is a failed run: it enters
    neither the medians nor ``change_wins``, and the pairs before it stay."""
    run = fake_checkout / "perfbench" / "run.py"
    run.write_text(FAKE_RUN.replace('sys.exit("seed 1 fails")', "pass").replace('"correct": True', '"correct": seed != 1'))
    out = tmp_path / "bench.json"
    argv = [str(fake_checkout)] * 2 + ["--workload", "genericity", "--seeds", "0-2", "--out", str(out)]
    assert load("bench_pairs").main(argv) == 1
    assert 'failed its output check: {"attempted": 1, "correct": false' in capsys.readouterr().err
    data = json.loads(out.read_text())
    assert [(r["side"], r["stamp"]["seed"]) for r in data["runs"]] == [("parent", 0), ("change", 0)]
    assert all(r["result"]["correct"] for r in data["runs"])
    cell = data["summary"]["genericity"]["ops_per_s"]
    assert cell["parent"]["runs"] == cell["change"]["runs"] == 1
    assert cell["change_wins"] == "0/1"


def test_bench_pairs_flags_a_metric_worse_than_its_bound(fake_checkout, tmp_path, capsys):
    """A change whose ``peak_rss_mb`` is 11% higher than the parent's is a
    ``regression`` against the 0.1 bound, in the words of
    ``perfbench/compare.py``; its other metrics, equal on both sides, are
    ``no worse``."""
    change = _checkout(
        tmp_path / "change",
        FAKE_RUN.replace("{n: {", '{n: {"value": seed * 1.11} if n == "peak_rss_mb" else {'),
    )
    out = tmp_path / "bench.json"
    argv = [str(fake_checkout), str(change), "--workload", "genericity", "--seeds", "2", "--out", str(out)]
    assert load("bench_pairs").main(argv) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if ": parent " in line]
    assert "genericity peak_rss_mb: parent 2 change 2.22 (+11.0%), change wins 0/1: regression" in lines
    end_to_end = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [line.split(":")[0] for line in lines] == [f"genericity {name}" for name in end_to_end]
    assert [line.rsplit(": ", 1)[1] for line in lines] == [
        "regression" if name == "peak_rss_mb" else "no worse" for name in end_to_end
    ]


def test_bench_pairs_claims_no_gain_before_ten_pairs(fake_checkout, tmp_path, capsys):
    """One pair in which the change is 5% better on every metric is a
    ``gain`` to ``perfbench/compare.py``, and ``no worse`` on every line
    until the workload has ten pairs."""
    change = _checkout(
        tmp_path / "change",
        FAKE_RUN.replace('[m["name"] for m', "[m for m").replace(
            '{n: {"value": seed} for n in names}',
            '{m["name"]: {"value": seed * (1.05 if m["better"] == "higher" else 0.95)} for m in names}',
        ),
    )
    out = tmp_path / "bench.json"
    argv = [str(fake_checkout), str(change), "--workload", "genericity", "--seeds", "2", "--out", str(out)]
    bench = load("bench_pairs")
    assert bench.main(argv) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if ": parent " in line]
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert [line.split(":")[0] for line in lines] == [f"genericity {m['name']}" for m in end_to_end]
    assert all(line.endswith("change wins 1/1: no worse") for line in lines)
    runs = bench.per_seed(json.loads(out.read_text())["runs"])["genericity"]
    for m in end_to_end:
        base, new = ({2: runs[side][2][m["name"]]["value"]} for side in bench.SIDES)
        assert bench.compare.verdict(base, new, m["better"], m["bound"]) == "gain"


@pytest.mark.parametrize("trace, refused", [("0", True), ("1", False)])
def test_bench_pairs_refuses_to_append_a_seed_it_holds(fake_checkout, tmp_path, capsys, trace, refused):
    """Appending seed 0 again would replace its pair in the summary while
    ``runs`` kept both; a traced run of the same seed is not summarised."""
    out = tmp_path / "bench.json"
    argv = [str(fake_checkout)] * 2 + ["--workload", "genericity", "--seeds", "0", "--out", str(out)]
    bench = load("bench_pairs")
    assert bench.main(argv) == 0
    before = out.read_text()
    if refused:
        with pytest.raises(SystemExit) as exc:
            bench.main(argv + ["--trace", trace, "--append"])
        assert exc.value.code == 2
        assert "already holds genericity --trace 0 runs of seeds [0]" in capsys.readouterr().err
        assert out.read_text() == before
    else:
        assert bench.main(argv + ["--trace", trace, "--append"]) == 0
        assert len(json.loads(out.read_text())["runs"]) == 4


def test_bench_pairs_refuses_an_unknown_workload_before_any_run(tmp_path, capsys):
    """A misspelt ``--workload`` is a usage error, exit 2, before either side
    runs: the choices are the benchmark's ``WORKLOADS``."""
    marked = FAKE_RUN.replace("import json, sys", 'import json, sys\nopen("ran", "w").close()')
    checkout = _checkout(tmp_path / "checkout", marked)
    out = tmp_path / "bench.json"
    argv = [str(checkout)] * 2 + ["--seeds", "0", "--out", str(out)]
    bench = load("bench_pairs")
    with pytest.raises(SystemExit) as exc:
        bench.main(argv + ["--workload", "genricity"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'genricity'" in err and "Traceback" not in err
    assert not out.exists() and not (checkout / "ran").exists()
    assert bench.main(argv + ["--workload", "prox"]) == 0 and (checkout / "ran").exists()


@pytest.mark.parametrize("seeds", ["", "3-1", "a-b", "-1", "1-2-3"])
def test_bench_pairs_bad_seed_ranges_are_usage_errors(seeds, tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        load("bench_pairs").main([str(ROOT), str(ROOT), "--workload", "genericity", "--seeds", seeds, "--out", str(out)])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_a_seeded_slice_of_the_cli_fuzz_ends_every_run_with_a_documented_exit_code(capsys):
    """200 mutated runs of ``nondegen.cli.main``: exit codes 0 to 3 only, and
    no traceback on stderr."""
    fuzz = load("fuzz_cli")
    assert fuzz.run(200, seed=0) == []
    assert fuzz.main(["--runs", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3 runs, seed 1: 0 failed"


@pytest.mark.parametrize("argv", [["--runs", "1_0"], ["--runs", "0", "--seed", "1_0"]])
def test_the_cli_fuzz_reads_its_flags_as_the_cli_reads_an_integer(argv, capsys):
    """``1_0`` is a usage error, exit 2, as on every integer flag of the CLI;
    ``int()`` would read it as 10."""
    with pytest.raises(SystemExit) as exc:
        load("fuzz_cli").main(argv)
    assert exc.value.code == 2
    assert "is not an integer" in capsys.readouterr().err


def test_the_cli_fuzz_reports_a_run_that_escapes_main(monkeypatch, capsys):
    """An exception out of ``main`` is a failed run, printed with its traceback."""
    fuzz = load("fuzz_cli")

    def broken(argv):
        raise AttributeError("'float' object has no attribute 'denominator'")

    monkeypatch.setattr(fuzz, "cli_main", broken)
    assert fuzz.main(["--runs", "2", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL exit=None") == 2 and "AttributeError" in out
