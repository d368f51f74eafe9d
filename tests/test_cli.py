import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hmsched import drivers
from hmsched.cli import (
    instance_from_doc,
    instance_to_doc,
    main,
    schedule_from_doc,
    schedule_to_doc,
)
from hmsched.oracle import GenParams, generate

DATA = Path(__file__).parent / "data"
FIG1 = DATA / "fig1.json"
FIG1_SCHEDULE = DATA / "fig1_schedule.json"


def run_cli(*args: str, env: dict | None = None):
    """Run the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "hmsched", *args],
                          capture_output=True, env=full_env)
    return proc.returncode, proc.stdout, proc.stderr


def test_instance_doc_round_trip():
    for seed in range(10):
        inst = generate(GenParams(seed=seed, restricted=bool(seed % 2)))
        assert instance_from_doc(instance_to_doc(inst)) == inst


def test_schedule_doc_round_trip(tmp_path):
    doc = json.loads(FIG1_SCHEDULE.read_text())
    sched = schedule_from_doc(doc, 1)
    assert schedule_to_doc(sched) == doc


def test_solve_fig1_cmax(capsys):
    assert main(["solve", str(FIG1), "--objective", "cmax"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "1/5"
    assert doc["objective"] == "cmax"


def test_solve_envy_identical_machines(tmp_path, capsys):
    inst_path = tmp_path / "twin.json"
    inst_path.write_text(json.dumps(
        {"p": [2], "n": [2], "s": [1], "m": [2]}))
    assert main(["solve", str(inst_path), "--objective", "cenvy"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "0/1"


@pytest.mark.parametrize("objective", ["cmax", "cmin", "cenvy"])
def test_oracle_method_matches_auto(objective, tmp_path, capsys):
    for seed in (1, 5, 9):
        path = tmp_path / f"i{seed}.json"
        inst = generate(GenParams(seed=seed, job_total_range=(1, 8),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 8)))
        path.write_text(json.dumps(instance_to_doc(inst)))
        assert main(["solve", str(path), "--objective", objective,
                     "--method", "oracle"]) == 0
        via_oracle = json.loads(capsys.readouterr().out)["value"]
        assert main(["solve", str(path), "--objective", objective]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == via_oracle


def test_check_pass_and_fail(capsys):
    assert main(["check", str(FIG1), str(FIG1_SCHEDULE),
                 "--objective", "cmax", "--value", "3/13"]) == 0
    capsys.readouterr()
    assert main(["check", str(FIG1), str(FIG1_SCHEDULE),
                 "--objective", "cmax", "--value", "1/5"]) == 4
    capsys.readouterr()


def test_check_empty_schedule(tmp_path, capsys):
    inst = tmp_path / "empty.json"
    inst.write_text(json.dumps({"p": [1], "n": [0], "s": [2], "m": [1]}))
    sched = tmp_path / "empty_sched.json"
    sched.write_text(json.dumps({"d": 1, "entries": [[0, [0], 1]]}))
    assert main(["check", str(inst), str(sched),
                 "--objective", "cmax", "--value", "0/1"]) == 0
    # without machines the instance is malformed, as for ``solve``
    inst.write_text(json.dumps({"p": [1], "n": [0], "s": [2], "m": [0]}))
    sched.write_text(json.dumps({"d": 1, "entries": []}))
    assert main(["solve", str(inst), "--objective", "cmax"]) == 1
    assert main(["check", str(inst), str(sched),
                 "--objective", "cmax", "--value", "0/1"]) == 1
    capsys.readouterr()


def test_check_exits_as_solve_does(tmp_path, capsys):
    # envy is undefined on a restricted instance, even for a schedule
    # that meets the value
    restricted = tmp_path / "restricted.json"
    restricted.write_text(json.dumps({
        "p": [1, 2], "n": [2, 1], "s": [1, 3], "m": [1, 1],
        "restrict": [[True, True], [False, True]]}))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"d": 2, "entries": [[0, [2, 0], 1],
                                                     [1, [0, 1], 1]]}))
    assert main(["solve", str(restricted), "--objective", "cenvy"]) == 1
    assert main(["check", str(restricted), str(sched),
                 "--objective", "cenvy", "--value", "4/3"]) == 1
    assert main(["check", str(restricted), str(sched),
                 "--objective", "cmax", "--value", "2/1"]) == 0
    # a demanded job type that no machine may run has no schedule
    blocked = tmp_path / "blocked.json"
    blocked.write_text(json.dumps({
        "p": [1, 1], "n": [1, 1], "s": [2], "m": [1],
        "restrict": [[True], [False]]}))
    sched.write_text(json.dumps({"d": 2, "entries": [[0, [1, 1], 1]]}))
    assert main(["solve", str(blocked), "--objective", "cmax"]) == 2
    assert main(["check", str(blocked), str(sched),
                 "--objective", "cmax", "--value", "1/1"]) == 2
    capsys.readouterr()



def test_check_envy_with_huge_machine_count(tmp_path, capsys):
    # completions are taken per entry, never per machine
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"p": [1], "n": [3], "s": [1], "m": [10**12]}))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(
        {"d": 1, "entries": [[0, [0], 10**12 - 3], [0, [1], 3]]}))
    assert main(["check", str(inst), str(sched),
                 "--objective", "cenvy", "--value", "1"]) == 0
    assert main(["check", str(inst), str(sched),
                 "--objective", "cenvy", "--value", "1/2"]) == 4
    capsys.readouterr()

def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "42", "--output", str(a)]) == 0
    assert main(["gen", "--seed", "42", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_restricted_round_trips(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["gen", "--seed", "7", "--restricted",
                 "--jobs-min", "1", "--jobs-max", "6",
                 "--output", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert "restrict" in doc
    inst = instance_from_doc(doc)
    assert instance_to_doc(inst) == doc
    assert main(["solve", str(path), "--objective", "cmax"]) in (0, 2)
    capsys.readouterr()


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": [1], "n": [1]}')
    assert main(["solve", str(bad), "--objective", "cmax"]) == 1
    zero_speed = tmp_path / "zs.json"
    zero_speed.write_text(json.dumps({"p": [1], "n": [1], "s": [0], "m": [1]}))
    assert main(["solve", str(zero_speed), "--objective", "cmax"]) == 1
    # a file that is not UTF-8, and arrays nested past the parser's
    # recursion limit
    bad.write_bytes(b'\xff\xfe{"p":[1]}')
    assert main(["solve", str(bad), "--objective", "cmax"]) == 1
    bad.write_text("[" * 200_000)
    assert main(["solve", str(bad), "--objective", "cmax"]) == 1
    capsys.readouterr()


def test_restricted_no_machine_exit_code(tmp_path, capsys):
    path = tmp_path / "blocked.json"
    path.write_text(json.dumps({
        "p": [1, 1], "n": [1, 1], "s": [2], "m": [1],
        "restrict": [[True], [False]]}))
    assert main(["solve", str(path), "--objective", "cmax"]) == 2
    # an unknown method is a usage error, reported before the instance's
    # infeasibility
    assert main(["solve", str(path), "--objective", "cmax",
                 "--method", "balanced"]) == 1
    capsys.readouterr()


RANGES = {"d": ["--d-min", "0"], "pmax": ["--pmax-max", "0"],
          "speed": ["--speed-min", "0"], "jobs": ["--jobs-min", "-1"],
          "machines": ["--machines-min", "4", "--machines-max", "2"]}
USAGE_ERRORS = {
    "objective": ["solve", str(FIG1), "--objective", "bogus"],
    "solve-method": ["solve", str(FIG1), "--objective", "cmax",
                     "--method", "balanced"],
    "bench-method": ["bench", "--method", "balanced"],
    "bench-count": ["bench", "--count", "-3"],
    "no-objective": ["solve", str(FIG1)],
    "no-schedule": ["check", str(FIG1)],
    "no-seed": ["gen"],
    "seed-not-int": ["gen", "--seed", "x"],
    "command": ["frob"],
    # ranges that the instance generator rejects
    **{f"{command}-{name}": [command, "--seed", "1", *flags]
       for command in ("gen", "bench") for name, flags in RANGES.items()},
}


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_are_malformed_input(args):
    # argparse's own exit code 2 would read as "no feasible schedule"
    code, out, err = run_cli(*args)
    assert code == 1, (out, err)
    assert b"malformed input" in err
    assert b"Traceback" not in err
    assert out == b""


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]])
def test_help_exits_0(args):
    code, out, err = run_cli(*args)
    assert code == 0, err
    assert out.startswith(b"usage: hmsched")


def test_resource_limit_exit_code(tmp_path):
    # p23(2,0) at k=8: its incumbent's critical run holds several
    # machines, so its probes build models, which need more than two
    # states
    inst_path = tmp_path / "limit.json"
    inst_path.write_text(json.dumps(
        {"p": [2, 3], "n": [26, 16], "s": [5, 7], "m": [8, 8]}))
    code, out, err = run_cli("solve", str(inst_path), "--objective", "cmax",
                             env={"HMSCHED_STATE_LIMIT": "2"})
    assert code == 3, (out, err)


def test_cli_runs_are_bytewise_deterministic():
    for args in (["solve", str(FIG1), "--objective", "cmax"],
                 ["solve", str(FIG1), "--objective", "cenvy"],
                 ["gen", "--seed", "13", "--restricted"],
                 ["bench", "--seed", "0", "--count", "3",
                  "--objective", "cmin"]):
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1  # stdout carries the document / table


@pytest.mark.parametrize("field,value", [
    ("p", [1.7]),
    ("p", [True]),
    ("n", ["3"]),
    ("s", [2.0]),
    ("m", [True]),
    ("n", "1"),
    ("restrict", [[1]]),
    ("restrict", [["yes"]]),
    ("restrict", [True]),
    ("d", True),
    ("d", 1.0),
    ("tau", True),
    ("tau", 1.0),
    ("name", {"a": 1}),
    ("name", 7),
])
def test_non_integer_instance_fields_are_malformed(field, value, tmp_path,
                                                    capsys):
    doc = {"p": [1], "n": [1], "s": [1], "m": [1], field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--objective", "cmax"]) == 1
    assert "malformed input" in capsys.readouterr().err


def test_check_unparseable_value_is_malformed(capsys):
    for value in ("abc", "1/0", "1.5", "2/"):
        assert main(["check", str(FIG1), str(FIG1_SCHEDULE),
                     "--objective", "cmax", "--value", value]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("entries", [
    [[0, [3], 1.9], [1, [3], 1], [2, [1], 1]],
    [[0.0, [3], 1], [1, [3], 1], [2, [1], 1]],
    [[0, [3.0], 1], [1, [3], 1], [2, [1], 1]],
    [[0, [3], True], [1, [3], 1], [2, [1], 1]],
    [[0, [-1], 1]],
])
def test_non_integer_schedule_entries_are_malformed(entries, tmp_path,
                                                    capsys):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"d": 1, "entries": entries}))
    assert main(["check", str(FIG1), str(path),
                 "--objective", "cmax", "--value", "3/13"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["solve", str(FIG1), "--objective", "cmax"],
    ["gen", "--seed", "1"],
], ids=["solve", "gen"])
def test_unwritable_output_is_malformed(args, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(*args, "--output", str(target))
    assert code == 1, (out, err)
    assert b"cannot write" in err
    assert b"Traceback" not in err
    assert not target.exists()


def test_non_integer_state_limit_is_malformed():
    code, out, err = run_cli("solve", str(FIG1), "--objective", "cmax",
                             env={"HMSCHED_STATE_LIMIT": "abc"})
    assert code == 1, (out, err)
    assert b"HMSCHED_STATE_LIMIT" in err
    assert b"Traceback" not in err


def test_negative_state_limit_is_malformed(tmp_path):
    # a budget of 0 stays valid: it fails only the solves that build states
    path = tmp_path / "p23.json"
    path.write_text(json.dumps({"p": [2, 3], "n": [47, 32], "s": [5, 7],
                                "m": [16, 16]}))
    code, out, err = run_cli("solve", str(path), "--objective", "cmin",
                             env={"HMSCHED_STATE_LIMIT": "-5"})
    assert code == 1, (out, err)
    assert b"HMSCHED_STATE_LIMIT" in err
    assert b"Traceback" not in err
    code, out, err = run_cli("solve", str(FIG1), "--objective", "cmax",
                             env={"HMSCHED_STATE_LIMIT": "0"})
    assert code == 0, (out, err)


def test_state_limit_is_read_before_solving(tmp_path, monkeypatch, capsys):
    # this instance's incumbent meets the area bound, so no solve builds
    # a model; the limit is still read, and rejected
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"p": [1], "n": [2], "s": [1], "m": [2]}))
    monkeypatch.setenv("HMSCHED_STATE_LIMIT", "abc")
    for objective in ("cmax", "cmin", "cenvy"):
        assert main(["solve", str(path), "--objective", objective]) == 1
    assert main(["bench"]) == 1
    assert "HMSCHED_STATE_LIMIT" in capsys.readouterr().err


def test_oracle_above_caps_exit_code(tmp_path, capsys):
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"p": [1], "n": [9], "s": [1], "m": [9]}))
    assert main(["solve", str(path), "--objective", "cmax",
                 "--method", "oracle"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("objective, driver", [
    ("cmax", "minimize_makespan"), ("cenvy", "minimize_envy")])
def test_out_of_memory_exits_as_a_resource_limit(monkeypatch, capsys,
                                                 objective, driver):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(drivers, driver, exhausted)
    assert main(["solve", str(FIG1), "--objective", objective]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: out of memory\n"


def test_oracle_method_maps_driver_rejections(tmp_path, capsys):
    blocked = tmp_path / "blocked.json"
    blocked.write_text(json.dumps({
        "p": [1, 1], "n": [1, 1], "s": [2], "m": [1],
        "restrict": [[True], [False]]}))
    assert main(["solve", str(blocked), "--objective", "cmax",
                 "--method", "oracle"]) == 2
    no_machines = tmp_path / "none.json"
    no_machines.write_text(json.dumps({"p": [1], "n": [1], "s": [2], "m": [0]}))
    assert main(["solve", str(no_machines), "--objective", "cmax",
                 "--method", "oracle"]) == 1
    # envy is defined for unrestricted instances only, whichever method
    # solves it, also when a job type cannot run at all
    restricted = tmp_path / "restricted.json"
    restricted.write_text(json.dumps({
        "p": [1, 2], "n": [2, 1], "s": [1, 3], "m": [1, 1],
        "restrict": [[True, True], [False, True]]}))
    for path in (restricted, blocked):
        for method in ("auto", "confilp", "oracle"):
            assert main(["solve", str(path), "--objective", "cenvy",
                         "--method", method]) == 1, (path.name, method)
    # an instance without job types is malformed, as ``gen`` says, for
    # every objective and method, and for ``check``
    no_jobs = tmp_path / "no_jobs.json"
    no_jobs.write_text(json.dumps({"p": [], "n": [], "s": [1], "m": [6]}))
    for objective in ("cmax", "cmin", "cenvy"):
        for method in ("auto", "confilp", "oracle"):
            assert main(["solve", str(no_jobs), "--objective", objective,
                         "--method", method]) == 1, (objective, method)
    idle = tmp_path / "idle.json"
    idle.write_text(json.dumps({"d": 0, "entries": [[0, [], 6]]}))
    assert main(["check", str(no_jobs), str(idle), "--objective", "cenvy",
                 "--value", "0"]) == 1
    capsys.readouterr()


def _route_instance(rnd) -> dict:
    """A random instance document: d <= 3, sizes in {1..7, 12}, job
    counts <= 30, speeds <= 60, up to 3 machine types of at most 5
    machines each, a third of them restricted."""
    d, tau = rnd.randint(1, 3), rnd.randint(1, 3)
    doc = {"p": [rnd.choice((1, 2, 3, 4, 5, 6, 7, 12)) for _ in range(d)],
           "n": [rnd.randint(0, 30) for _ in range(d)],
           "s": [rnd.randint(1, 60) for _ in range(tau)],
           "m": [rnd.randint(1, 5) for _ in range(tau)]}
    if rnd.random() < 1 / 3:
        doc["restrict"] = [[rnd.random() < 0.7 for _ in range(tau)]
                           for _ in range(d)]
    return doc


def test_cli_routes_agree_on_random_instances(tmp_path, monkeypatch, capsys):
    # Every solve ends in a documented exit code, the methods that all
    # succeed agree, and every schedule returned certifies its value.
    import random
    monkeypatch.setenv("HMSCHED_STATE_LIMIT", "20000")
    rnd = random.Random(2026)
    inst_path, out_path = tmp_path / "inst.json", tmp_path / "out.json"
    sched_path = tmp_path / "sched.json"
    codes = {}
    for _ in range(150):
        inst_path.write_text(json.dumps(_route_instance(rnd)))
        for objective, methods in (("cmax", ("auto", "confilp")),
                                   ("cmin", ("auto", "confilp")),
                                   ("cenvy", ("auto",))):
            values = {}
            for method in methods:
                code = main(["solve", str(inst_path), "--objective", objective,
                             "--method", method, "--output", str(out_path)])
                assert code in (0, 1, 2, 3), (inst_path.read_text(), method)
                codes[code] = codes.get(code, 0) + 1
                if code:
                    continue
                doc = json.loads(out_path.read_text())
                values[method] = doc["value"]
                sched_path.write_text(json.dumps(doc["schedule"]))
                assert main(["check", str(inst_path), str(sched_path),
                             "--objective", objective,
                             "--value", doc["value"]]) == 0
            if len(values) == len(methods):
                assert len(set(values.values())) == 1, (
                    inst_path.read_text(), objective, values)
        capsys.readouterr()
    assert codes.get(0, 0) > 0, codes
    print(f"route differential: exit codes {sorted(codes.items())}")


# Instance and schedule documents for the fuzz test: small well-shaped
# documents with zero counts and speeds allowed, of which up to two
# fields are then replaced by junk: a value of the wrong type or sign,
# an array empty, ragged or of junk, or a matrix of any shape.
_junk = st.recursive(
    st.integers(-1, 5) | st.sampled_from([True, False, 1.5, "2", None]),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@st.composite
def _instance_doc(draw):
    d, tau = (draw(st.sampled_from((0, 1, 1, 2, 2, 3))) for _ in range(2))

    def ints(lo, hi, k):
        return draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k))

    doc = {"p": ints(1, 5, d), "n": ints(0, 5, d), "s": ints(0, 6, tau),
           "m": ints(0, 3, tau)}
    if draw(st.booleans()):
        doc["restrict"] = [draw(st.lists(st.booleans(), min_size=tau,
                                         max_size=tau)) for _ in range(d)]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        key = draw(st.sampled_from(("p", "n", "s", "m", "restrict", "d", "tau")))
        doc[key] = draw(_junk)
    return doc


@st.composite
def _schedule_doc(draw):
    d = draw(st.integers(0, 3))
    entries = draw(st.lists(st.tuples(
        st.integers(0, 3), st.lists(st.integers(0, 3), min_size=d, max_size=d),
        st.integers(0, 3)).map(list), max_size=3))
    doc = {"d": d, "entries": entries}
    if draw(st.sampled_from((False, False, True))):
        doc[draw(st.sampled_from(("d", "entries")))] = draw(_junk)
    return doc


_value = st.sampled_from(["0", "1", "3/2", "1/0", "x", "-1"])


def test_cli_fuzz_ends_in_an_exit_code(tmp_path, monkeypatch, capsys):
    # Whatever the documents hold, ``solve`` (every objective and method)
    # and ``check`` return a documented exit code and raise nothing.
    monkeypatch.setenv("HMSCHED_STATE_LIMIT", "20000")
    inst_path, out_path = tmp_path / "inst.json", tmp_path / "out.json"
    sched_path = tmp_path / "sched.json"

    @settings(max_examples=200, database=None)
    # no job types: pmax is undefined, and the envy grid needs it
    @example({"p": [], "n": [], "s": [1], "m": [6]},
             {"d": 0, "entries": [[0, [], 6]]}, "0")
    @given(_instance_doc(), _schedule_doc(), _value)
    def run(inst_doc, sched_doc, value):
        inst_path.write_text(json.dumps(inst_doc))
        sched_path.write_text(json.dumps(sched_doc))
        for objective in ("cmax", "cmin", "cenvy"):
            for method in ("auto", "confilp", "oracle"):
                code = main(["solve", str(inst_path), "--objective", objective,
                             "--method", method, "--output", str(out_path)])
                assert code in (0, 1, 2, 3, 4), (inst_doc, objective, method)
            code = main(["check", str(inst_path), str(sched_path),
                         "--objective", objective, "--value", value])
            assert code in (0, 1, 2, 3, 4), (inst_doc, sched_doc, objective)
        capsys.readouterr()

    run()
