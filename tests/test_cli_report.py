import argparse
import csv
import json
import math
import re
from pathlib import Path

import pytest

from sunit_harvest.arith import PrimeSet
from sunit_harvest.cli import build_harvest_config, main, parse_config_file
from sunit_harvest import cli, pipelines
from sunit_harvest.errors import ConfigError, DomainError, FactorizationLimit, ResourceLimit
from sunit_harvest.pipelines import verify_sunit_solution
from sunit_harvest.report import SOLUTION_HEADERS, compare_bounds, write_csv

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

THM1_CFG = """\
# comment line
equation=thm1
x=1000000
alpha=0.16666666666666666
variant=unconditional
delta=0.1
t1=2,3,17,19,23,29,31,37,41,43
t2=5,7,11,13,101,103,107,109,113,127
t3=53,59,61,67,71,73,79,83,89,97
"""

PROP1_CFG = """\
equation=prop1
x=1000000
t1=2,3,17,19,23,29,31,37,41,43
t2=5,7,11,13,101,103,107,109,113,127
t3=53,59,61,67,71,73,79,83,89,97
"""

# the keys of the other equations that each equation does not read
UNREAD_KEYS = {
    "prop1": ("alpha", "variant", "delta", "epsilon", "w", "z", "q", "y"),
    "thm1": ("y",),
    "thm2": ("q",),
}


def test_compare_bounds_examples():
    rec = compare_bounds(50, "prop1", 0.0, 12)
    assert rec["formula_value"] == pytest.approx(
        math.exp((1 / (2 * math.sqrt(2))) * math.sqrt(50 / math.log(50))), rel=1e-12
    )
    assert rec["formula_value"] == pytest.approx(3.5394714, rel=1e-6)
    assert rec["ratio"] == pytest.approx(12 / rec["formula_value"])
    rec = compare_bounds(2, "thm1", 0.01, 1)
    assert rec["formula_value"] == pytest.approx(3.0486798, rel=1e-6)
    rec = compare_bounds(10, "thm2", 0.01, 0)
    assert rec["ratio"] == 0.0 and rec["flagged_empty"]
    assert "not an acceptance gate" in rec["note"]
    with pytest.raises(DomainError):
        compare_bounds(1, "thm1", 0.01, 1)


def test_config_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(THM1_CFG)
    params = parse_config_file(p)
    assert params["equation"] == "thm1"
    assert params["x"] == "1000000"

    bad = tmp_path / "bad.cfg"
    bad.write_text("equation=thm1\nbogus_key=3\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(bad)
    assert "bogus_key" in str(err.value)

    dup = tmp_path / "dup.cfg"
    dup.write_text("x=1\nx=2\n")
    with pytest.raises(ConfigError):
        parse_config_file(dup)

    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("x 5\n")
    with pytest.raises(ConfigError):
        parse_config_file(noeq)


def test_cli_thm1_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THM1_CFG)
    out = tmp_path / "report.json"
    sols = tmp_path / "solutions.csv"
    code = main(["thm1", "--config", str(cfg), "--out", str(out), "--solutions", str(sols)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["run"]["solutions"]
    # CSV rows re-verify after re-reading against the run's S
    header, *rows = csv.reader(sols.open())
    assert header == SOLUTION_HEADERS["thm1"]
    S = PrimeSet(tuple(payload["run"]["s_full"]))
    for row in rows:
        assert verify_sunit_solution(tuple(map(int, row[:2])), "thm1", S)


def test_cli_exit_codes(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("equation=thm1\nbogus=1\n")
    assert main(["thm1", "--config", str(cfg)]) == 1

    # infeasible alpha -> constraint violation -> exit 3
    cfg2 = tmp_path / "infeasible.cfg"
    cfg2.write_text(THM1_CFG.replace("alpha=0.16666666666666666", "alpha=0.3"))
    assert main(["thm1", "--config", str(cfg2)]) == 3

    # empty harvest -> exit 2 (t2 too small to reach the R window, so C is empty)
    cfg3 = tmp_path / "empty.cfg"
    cfg3.write_text(
        THM1_CFG.replace("t2=5,7,11,13,101,103,107,109,113,127", "t2=5,7,11,13")
    )
    assert main(["thm1", "--config", str(cfg3)]) == 2

    # resource limit -> exit 4
    cfg4 = tmp_path / "capped.cfg"
    cfg4.write_text(THM1_CFG + "hit_cap=1\n")
    assert main(["thm1", "--config", str(cfg4)]) == 4


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("thm1", "x=1000000", "x=abc"),
        ("thm1", "delta=0.1", "delta=tenth"),
        ("thm1", "t1=2,3,", "t1=2,three,"),
        ("thm1", "x=1000000", "x=1000000\nw=inf"),
        ("thm1", "x=1000000", "x=1000000\nw=2.9"),
        ("prop1", "x=1000000", "x=abc"),
        ("prop1", "x=1000000", "x=600\nhit_cap=lots"),
        ("prop1", "t1=2,3,17,19,23,29,31,37,41,43\n", "t_interval=2\n"),
        ("thm1", "x=1000000", "x=0"),
        ("thm2", "x=1000000", "x=-5"),
        ("thm1", "x=1000000", "x=1000000\nw=0"),
        ("thm1", "x=1000000", "x=1000000\nq=0"),
        # an empty scale window names the key that sets it; q sets R = X / Q, below 2 here
        ("thm1", "x=1000000", "x=1000000\nq=1e300"),
        ("thm1", "x=1000000", "x=1000000\nw=1\nz=1.5"),
        ("thm1", "x=1000000", "x=1000000\nepsilon=-5"),
        ("thm1", "x=1000000", "x=1000000\nepsilon=0"),
        # a negative cap is a config error, not a resource limit of -1
        ("thm1", "x=1000000", "x=1000000\nenum_cap=-1"),
        ("prop1", "x=1000000", "x=600\nhit_cap=-1"),
        # R is X / Q: r is no key of any equation
        ("thm1", "x=1000000", "x=1000000\nr=1"),
        ("thm2", "x=1000000", "x=1000000\nr=1"),
        ("prop1", "x=1000000", "x=1000000\nr=1"),
        # the config fuzz found these four exiting 1 without a key, or with a traceback
        ("thm1", "variant=unconditional", "variant=both"),
        ("thm1", "t1=2,3,", "t1=2,4,"),
        ("prop1", "t1=2,3,17,19,23,29,31,37,41,43\n", "t_interval=50,60\n"),
        ("thm1", "delta=0.1", "delta=-1e300"),
    ],
)
def test_cli_bad_config_value(tmp_path, capsys, command, old, new):
    # every malformed numeric value ends as a one-line config error, exit 1, naming its key
    cfg = tmp_path / "bad.cfg"
    base = {"thm1": THM1_CFG, "thm2": THM1_CFG.replace("equation=thm1", "equation=thm2"), "prop1": PROP1_CFG}
    cfg.write_text(base[command].replace(old, new))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    bad_key = new.splitlines()[-1].split("=")[0]
    assert err.startswith("config error:") and repr(bad_key) in err and err.count("\n") == 1


def test_cli_empty_thm2_window_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text((CONFIGS / "thm2_desk.cfg").read_text() + "z=1.5\n")
    assert main(["thm2", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'z'" in err and "[2, 1]" in err and err.count("\n") == 1


def test_cli_thm2_z_must_be_positive(tmp_path, capsys):
    # a window Z^(1 - delta) of a negative Z would be complex
    cfg = tmp_path / "run.cfg"
    cfg.write_text((CONFIGS / "thm2_desk.cfg").read_text() + "z=-1\n")
    assert main(["thm2", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'z'" in err and "0 < Z" in err and err.count("\n") == 1


@pytest.mark.parametrize("equation, key", [(eq, key) for eq, keys in UNREAD_KEYS.items() for key in keys])
def test_cli_refuses_keys_the_equation_does_not_read(tmp_path, capsys, equation, key):
    cfg = tmp_path / "run.cfg"
    base = PROP1_CFG if equation == "prop1" else THM1_CFG.replace("equation=thm1", f"equation={equation}")
    cfg.write_text(base + f"{key}=1\n")
    assert main([equation, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert repr(key) in err and "does not read" in err


@pytest.mark.parametrize("equation", sorted(UNREAD_KEYS))
def test_config_echo_holds_only_keys_the_equation_reads(tmp_path, equation):
    out = tmp_path / "report.json"
    assert main([equation, "--config", str(CONFIGS / f"{equation}_desk.cfg"), "--out", str(out)]) == 0
    echo = json.loads(out.read_text())["run"]["config_echo"]
    derived = {"r"} if equation == "thm1" else set()  # thm1's R = X / Q
    assert set(echo) <= cli._KEYS[equation] | derived and None not in echo.values()


def test_scale_overrides_reach_the_config():
    base = {"x": "1000000", "t_interval": "2,113"}
    cfg = build_harvest_config({**base, "equation": "thm1", "q": "1000", "z": "120", "w": "3"})
    assert (cfg.q, cfg.r, cfg.z, cfg.w_max) == (1000, 1000, 120, 3)
    cfg = build_harvest_config({**base, "equation": "thm2", "y": "2000000"})
    assert cfg.y == 2_000_000


def test_integer_config_values_are_exact():
    params = {"equation": "prop1", "x": "9007199254740993", "t_interval": "2,113"}
    assert build_harvest_config(params).x == 9007199254740993  # 2**53 + 1
    assert build_harvest_config({**params, "x": "1e6"}).x == 10**6
    cfg = build_harvest_config({**params, "hit_cap": "2.5e3"})
    assert type(cfg.hit_cap) is int and cfg.hit_cap == 2500


@pytest.mark.parametrize(
    "argv",
    [
        "siegel --alpha 1,x --bound 3",
        "siegel --alpha , --bound 3",
        "oracle linear_count --a-set 3,x --c-set 1,2 --bound 5",
        "oracle sunit_pairs --bound 100",
        "oracle linear_count --c-set 1,2 --bound 5",
        "oracle sunit_pairs --primes 2,3",
        "oracle linear_count --a-set 0 --c-set 1,2 --bound 5",
        "exponents --theorem thm1 --variant conditional",
        "verify circle --qmax 5",
        "verify charsums --qmax 2",
        "verify sieve --trials 0",
        "verify charsums --trials -3",
        "frontier --kmax 1",
        "frontier --kmax -3",
    ],
)
def test_cli_bad_input_is_one_line(capsys, argv):
    # a traceback exits 1 as well: the single stderr line shows the error was handled
    try:
        code = main(argv.split())
    except SystemExit as stop:  # a usage error found by the argument parser
        code = stop.code
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        "thm1 --config {tmp}/missing.cfg",
        "thm1 --config {tmp}",  # a directory
        "thm1 --config {tmp}/latin1.cfg",  # not UTF-8
        "verify charsums --qmax 10 --out {tmp}/missing/summary.json",
        "verify charsums --qmax 10 --solutions {tmp}/missing/ratios.csv",
    ],
)
def test_cli_file_errors_are_one_line(tmp_path, capsys, argv):
    (tmp_path / "latin1.cfg").write_bytes("# café\nequation=thm1\n".encode("latin-1"))
    code = main(argv.format(tmp=tmp_path).split())
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_cli_huge_alpha_is_a_constraint_violation(tmp_path, capsys):
    # the cubic margin overflows to -inf, not to an OverflowError
    cfg = tmp_path / "run.cfg"
    cfg.write_text((CONFIGS / "thm2_desk.cfg").read_text().replace("alpha=0.52", "alpha=1e300"))
    assert main(["thm2", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("constraint violation:") and "margin -inf" in err and err.count("\n") == 1


def test_cli_sieve_cap_exit(tmp_path, capsys):
    # refused before any sieve is built, at 10^12 as at 10^30
    cfg = tmp_path / "run.cfg"
    cfg.write_text("equation=prop1\nx=600\nt_interval=2,1000000000000000000000000000000\n")
    assert main(["prop1", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and err.count("\n") == 1


@pytest.mark.parametrize("message", ["Unable to allocate 275. MiB for an array with shape (36108276,)", ""])
def test_cli_out_of_memory_is_a_resource_limit(monkeypatch, capsys, message):
    # an allocation the run cannot make ends in exit 4 and one line, not a traceback
    def run(config):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "thm2_run", run)
    assert main(["thm2", "--config", str(CONFIGS / "thm2_desk.cfg")]) == 4
    out, err = capsys.readouterr()
    assert not out and err.startswith("resource limit: out of memory") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_cli_alpha_must_be_positive(tmp_path, capsys, alpha):
    # alpha = 0 fails alpha_positive as alpha = -1 does, before any window is derived
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THM1_CFG.replace("alpha=0.16666666666666666", f"alpha={alpha}"))
    assert main(["thm1", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("constraint violation:") and "alpha_positive" in err and err.count("\n") == 1


def test_cli_decode_error_names_the_config(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# café\nequation=thm1\n".encode("latin-1"))
    assert main(["thm1", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err and "utf-8" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag, target", [("--out", "missing/x.json"), ("--solutions", "missing/x.csv"), ("--out", ".")])
def test_cli_output_paths_are_checked_before_the_run(tmp_path, capsys, monkeypatch, flag, target):
    # nothing is computed or printed for an output path that cannot be written
    scans = []
    monkeypatch.setattr(cli, "polya_vinogradov_check", scans.append)
    assert main(["verify", "charsums", "--qmax", "10", flag, str(tmp_path / target)]) == 1
    out, err = capsys.readouterr()
    assert not scans and out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert flag in err


def test_cli_prop1_caps(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("equation=prop1\nx=30\nt1=2\nt2=3\nt3=5\nhit_cap=0\n")
    # hit_cap bounds the prop1 coefficient triples as it bounds thm1 and thm2 hits
    assert main(["prop1", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith("resource limit:")
    cfg.write_text("equation=prop1\nx=30\nt1=2\nt2=3\nt3=5\ntriple_cap=8\n")
    assert main(["prop1", "--config", str(cfg)]) == 1
    assert "triple_cap" in capsys.readouterr().err


def test_cli_factorization_limit_exit(tmp_path, capsys, monkeypatch):
    def give_up(config):
        raise FactorizationLimit("popular key did not factor")

    monkeypatch.setattr(cli, "thm1_run", give_up)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THM1_CFG)
    assert main(["thm1", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith("resource limit:")


def test_cli_int64_limit_exit(tmp_path, capsys):
    # c*W reaches about 1e20 > 2**63 at X = 1e16, W = 10^4: a one-line exit 4
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THM1_CFG.replace("x=1000000", "x=10000000000000000\nz=10000\nw=10000"))
    assert main(["thm1", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and "beyond int64" in err and err.count("\n") == 1


@pytest.mark.parametrize("r_max, code", [(2 * (2**31 - 1) + 4, 0), (2 * (2**31 - 1) + 5, 4)])
def test_cli_column_offset_limit_exit(tmp_path, capsys, monkeypatch, r_max, code):
    # thm1 at a = 2^31 - 1 runs while r_max * a < 2^63 (test_column_offsets_at_the_int64_edge);
    # one past, it exits 4 with one line before any count or walk
    a = 2**31 - 1
    monkeypatch.setattr(pipelines, "_window_sets", lambda *args: [[2**29, a - 1], [2 * a - 1, r_max], [a]])
    if code:
        monkeypatch.setattr(pipelines, "count_hits", lambda *args: pytest.fail("the count started"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THM1_CFG + "w=1\n")
    assert main(["thm1", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("resource limit: residue columns") and "beyond int64" in err and err.count("\n") == 1
    else:
        assert json.loads((tmp_path / "out.json").read_text())["run"]["bucket_stats"]["total_hits"] == 2


def test_cli_hit_bound_before_walk(tmp_path, capsys, monkeypatch):
    # the thm2 desk config at w=300000 makes 108,326,811 hits: counted and refused before any walk
    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(pipelines, "progressions", walk)
    cfg = tmp_path / "run.cfg"
    cfg.write_text((CONFIGS / "thm2_desk.cfg").read_text() + "w=300000\n")
    assert main(["thm2", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err == "resource limit: 108326811 hits beyond hit cap 50000000\n"


@pytest.mark.parametrize("name, w", [("thm1", 99), ("thm2", 300)])  # min A is 64 and 63
def test_hit_bound_covers_hits(name, w):
    # with W above min A a coefficient tuple may make several hits: the cap bounds the
    # exact count of hits, u = 0 hits included, not of tuples; a cap equal to it runs
    def run(hit_cap):
        params = {**parse_config_file(CONFIGS / f"{name}_desk.cfg"), "w": str(w), "hit_cap": str(hit_cap)}
        return getattr(pipelines, f"{name}_run")(build_harvest_config(params))

    report = run(50_000_000)
    with pytest.raises(ResourceLimit, match="beyond hit cap 0") as refused:
        run(0)
    count = int(re.search(r"^(\d+) hits", str(refused.value)).group(1))
    tuples = report.set_sizes["A"] * report.set_sizes.get("B", 1) * report.set_sizes["C"]
    assert tuples < report.bucket_stats["total_hits"] + report.audits.get("u_zero_discards", 0) == count
    assert run(count).solutions == report.solutions
    with pytest.raises(ResourceLimit, match=f"^{count} hits beyond hit cap {count - 1}$"):
        run(count - 1)


@pytest.mark.parametrize("name, degenerate", [("thm1", True), ("thm2", False)])
def test_cli_degenerate_harvest_warns(tmp_path, capsys, name, degenerate):
    # every bucket of the thm1 desk run holds one hit: one stderr line, still exit 0
    out = tmp_path / "report.json"
    assert main([name, "--config", str(CONFIGS / f"{name}_desk.cfg"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["run"]["bucket_stats"]["degenerate"] is degenerate
    err = capsys.readouterr().err
    if degenerate:
        assert err.startswith("warning: degenerate harvest:") and err.count("\n") == 1
    else:
        assert err == ""


def test_cli_report_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THM1_CFG)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["thm1", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["thm1", "--config", str(cfg), "--out", str(out2), "--threads", "8"]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert {**r1, "timing": None} == {**r2, "timing": None}
    # serialization round-trips losslessly
    assert json.loads(json.dumps(r1)) == r1


def test_cli_oracle_fixture(tmp_path):
    out = tmp_path / "oracle.json"
    code = main(
        ["oracle", "sunit_pairs", "--primes", "2,3", "--bound", "100", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["solutions"] == [[1, 2], [2, 3], [3, 4], [8, 9]]


def test_cli_exponents(tmp_path, capsys):
    code = main(["exponents", "--theorem", "thm1", "--variant", "unconditional", "--alpha", "0.16"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponents"]["Z"] == pytest.approx((1 - 3 * 0.16) / (1 + 3 * 0.16))

    out = tmp_path / "frontier.csv"
    assert main(["frontier", "--kmax", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,theta,frontier"
    assert len(lines) == 1 + 2 + 4 + 8  # header + subsets for k = 2, 3, 4


def test_cli_verify_and_smooth(tmp_path, capsys):
    assert main(["verify", "sieve", "--trials", "5"]) == 0
    capsys.readouterr()
    assert main(["verify", "circle", "--qmax", "40"]) == 0
    capsys.readouterr()
    # the least --qmax each verification accepts
    assert main(["verify", "circle", "--qmax", "8"]) == 0
    assert main(["verify", "charsums", "--qmax", "3", "--trials", "2"]) == 0
    capsys.readouterr()
    assert main(["smooth", "--primes", "2,3,5", "--lo", "2", "--hi", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["members"] == [2, 3, 5, 6, 10, 15, 30]
    assert main(["siegel", "--alpha", "1,-1", "--bound", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z"] == [1, 1]


def test_solutions_csv_roundtrip(tmp_path):
    rows = [(7, 8, 7, 4, 1, 2)]
    path = tmp_path / "sols.csv"
    write_csv(path, SOLUTION_HEADERS["thm1"], rows)
    header, *back = csv.reader(path.open())
    assert header == SOLUTION_HEADERS["thm1"]
    assert [tuple(map(int, row)) for row in back] == rows


def test_verify_csv_artifacts(tmp_path, capsys):
    ratios = tmp_path / "ratios.csv"
    code = main(
        ["verify", "charsums", "--qmax", "15", "--trials", "3", "--solutions", str(ratios)]
    )
    capsys.readouterr()
    assert code == 0
    lines = ratios.read_text().strip().splitlines()
    assert lines[0] == "modulus,character_index,statistic,bound,ratio"
    assert len(lines) > 5
    assert all(float(line.split(",")[4]) <= 1.0 for line in lines[1:])

    spectrum = tmp_path / "spectrum.csv"
    code = main(["verify", "circle", "--qmax", "40", "--solutions", str(spectrum)])
    capsys.readouterr()
    assert code == 0
    lines = spectrum.read_text().strip().splitlines()
    assert lines[0] == "a,h,s_mu_abs,fraction_sum_abs,term"
    assert len(lines) > 10


# the flags each leaf command reads; --threads is the one flag accepted and ignored,
# and --seed is read by the verify commands alone, which draw random numbers
_PIPELINE_FLAGS = {"--config", "--out", "--solutions", "--threads"}
_SUNIT_ORACLE_FLAGS = {"--primes", "--bound", "--out", "--solutions", "--cap"}
FLAG_TABLE = {
    "thm1": _PIPELINE_FLAGS,
    "thm2": _PIPELINE_FLAGS,
    "prop1": _PIPELINE_FLAGS,
    "oracle sunit_pairs": _SUNIT_ORACLE_FLAGS,
    "oracle prop1_triples": _SUNIT_ORACLE_FLAGS,
    "oracle linear_count": {"--a-set", "--c-set", "--bound", "--shift", "--out", "--cap"},
    "exponents": {"--theorem", "--variant", "--alpha", "--out"},
    "frontier": {"--kmax", "--out"},
    "verify charsums": {"--qmax", "--trials", "--seed", "--out", "--solutions"},
    "verify sieve": {"--trials", "--seed", "--out"},
    "verify circle": {"--qmax", "--seed", "--out", "--solutions"},
    "smooth": {"--primes", "--lo", "--hi", "--out", "--cap"},
    "siegel": {"--alpha", "--bound", "--out"},
}


def _leaf_flags(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        flags = {opt for a in parser._actions for opt in a.option_strings}
        yield " ".join(prefix), flags - {"-h", "--help"}
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_flags(child, prefix + (name,))


def test_cli_flag_table():
    table = dict(_leaf_flags(cli.build_parser()))
    assert table == FLAG_TABLE
    assert sum(len(flags) for flags in table.values()) == 54


@pytest.mark.parametrize("command", ["", "oracle", "verify", *FLAG_TABLE])
def test_cli_help_is_the_full_trees(capsys, command):
    # main builds only the parser of the leaf it runs; every help text is the full tree's
    words = command.split()
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args([*words, "-h"])
    want = capsys.readouterr().out
    with pytest.raises(SystemExit) as ours:
        main([*words, "-h"])
    assert capsys.readouterr().out == want and stop.value.code == ours.value.code == 0
    if command in FLAG_TABLE:
        assert list(_leaf_flags(cli.build_parser(words))) == [(command, FLAG_TABLE[command])]


@pytest.mark.parametrize(
    "argv",
    ["", "bogus", "verify", "verify bogus", "thm2", "thm2 extra", "oracle sunit_pairs --bound x", "--seed 1 thm2"],
)
def test_cli_usage_errors_are_the_full_trees(capsys, argv):
    # an unknown, missing or incomplete command builds the whole tree; each error and exit code is its own
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args(argv.split())
    want = capsys.readouterr().err
    with pytest.raises(SystemExit) as ours:
        main(argv.split())
    assert capsys.readouterr().err == want and stop.value.code == ours.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        "verify sieve --qmax 1",
        "verify circle --trials 2",
        "verify sieve --solutions x.csv",
        "verify charsums --threads 2",
        "verify circle --cap 5",
        "siegel --alpha 1,-1 --bound 1 --cap 3",
        "siegel --alpha 1,-1 --bound 1 --seed 1",
        "frontier --seed 1",
        "frontier --solutions x.csv",
        "smooth --primes 2,3,5 --lo 2 --hi 30 --seed 1",
        "smooth --primes 2,3,5 --lo 2 --hi 30 --threads 2",
        "oracle linear_count --a-set 3 --c-set 1,2 --bound 5 --solutions x.csv",
        "oracle linear_count --a-set 3 --c-set 1,2 --bound 5 --primes 2,3",
        "oracle sunit_pairs --primes 2,3 --bound 100 --shift 2",
        "oracle prop1_triples --primes 2,3 --bound 100 --threads 2",
        "oracle --kind sunit_pairs --primes 2,3 --bound 100",
        "thm1 --config demos/configs/thm1_desk.cfg --seed 1",
        "thm2 --config demos/configs/thm2_desk.cfg --seed 1",
        "prop1 --config demos/configs/prop1_desk.cfg --seed 1",
        "oracle sunit_pairs --primes 2,3 --bound 100 --seed 1",
        "oracle prop1_triples --primes 2,3 --bound 100 --seed 1",
        "oracle linear_count --a-set 3 --c-set 1,2 --bound 5 --seed 1",
    ],
)
def test_cli_refuses_flags_the_command_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv.split())
    err = capsys.readouterr().err
    assert stop.value.code == 1 and err.count("\n") == 1 and "unrecognized arguments" in err, err


@pytest.mark.parametrize(
    "argv",
    [
        "smooth --primes 2,3,5 --lo 2 --hi 30 --cap 0",
        "oracle sunit_pairs --primes 2,3 --bound 100 --cap 0",
        "oracle prop1_triples --primes 2,3 --bound 100 --cap 0",
        "oracle linear_count --a-set 3 --c-set 1,2 --bound 5 --cap 0",
    ],
)
def test_cli_cap_zero_is_a_cap(capsys, argv):
    # --cap 0 is a cap of 0, not the default
    assert main(argv.split()) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and err.count("\n") == 1


def test_cli_frontier_kmax_bound(capsys):
    # the frontier lists 2^kmax - 2 rows in memory before writing any
    assert main(["frontier", "--kmax", "21"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and "--kmax 21" in err and err.count("\n") == 1


def test_cli_siegel_budget(capsys):
    # the collision scan's side C + 1 = 2 * 10^12 + 1 is refused before an axis is listed
    assert main(["siegel", "--alpha", "1,2", "--bound", str(10**12)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and "budget" in err and err.count("\n") == 1


# a quick run of every command that writes a JSON report: all but frontier
REPORT_ARGVS = [
    *(f"{name} --config {CONFIGS / name}_desk.cfg" for name in ("thm1", "thm2", "prop1")),
    "oracle sunit_pairs --primes 2,3 --bound 100",
    "oracle prop1_triples --primes 2,3,5 --bound 100",
    "oracle linear_count --a-set 3,5 --c-set 1,2 --bound 5",
    "exponents --theorem thm2 --variant unconditional --alpha 0.52",
    "verify charsums --qmax 10 --trials 2",
    "verify sieve --trials 2",
    "verify circle --qmax 8",
    "smooth --primes 2,3,5 --lo 2 --hi 30",
    "siegel --alpha 3,5,7 --bound 7",
]


@pytest.mark.parametrize("argv", REPORT_ARGVS)
def test_cli_report_carries_timing(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv.split(), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["timing"]) == {"wall_seconds", "timestamp"}
    # only the commands that draw random numbers echo a seed
    assert ("seed" in report) == argv.startswith("verify ")


@pytest.mark.parametrize("argv", REPORT_ARGVS)
def test_cli_stdout_matches_out_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_timing", lambda t0: {})  # the one block that differs run to run
    code = main(argv.split())
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main([*argv.split(), "--out", str(out)]) == code == 0
    assert capsys.readouterr().out == ""
    assert printed == out.read_text()


@pytest.mark.parametrize("argv", ["verify charsums --qmax 1001", "verify circle --qmax 100001"])
def test_cli_qmax_bound(capsys, argv):
    assert main(argv.split()) == 4  # refused before any modulus is scanned
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and "--qmax" in err and err.count("\n") == 1
