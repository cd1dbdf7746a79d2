"""Fuzz oracle for the command line: a config file or an argv, however
malformed, ends in a documented exit code and at most one line on stderr.

Each config example writes a thm1, thm2 or prop1 config whose scale x is held
small, so that every run is bounded, and then sets some known keys to numbers,
junk, huge or negative values, repeats a line, adds a line the parser cannot
read or breaks the UTF-8.  An exit 1 must name the config key or the file.

Each argv example takes a quick run of a command and adds an unknown flag,
repeats a flag, drops a flag's value or sets a --qmax, --trials, --kmax,
--seed, --bound, --cap or --threads to a negative or non-numeric value, so
that every run stays bounded.  A flag with a lower bound given a value below
it, or no integer, must then be refused as a usage error: exit 1, naming a flag.
Examples set a --trials above its upper bound, which must exit 4 before any
trial, naming the flag.
"""

import io
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunit_harvest import cli

KNOWN_KEYS = sorted(set().union(*cli._KEYS.values()))

# the smallest x at which each base config still harvests (thm1, thm2) or stays quick (prop1)
BASE = {
    "thm1": {"equation": "thm1", "x": "100000", "delta": "0.5", "t1": "2,3,5,7", "t2": "11,13,17,19", "t3": "23,29,31,37"},
    "thm2": {"equation": "thm2", "x": "10000", "delta": "0.5", "t1": "2,3,5,7", "t2": "11,13,17,19", "t3": "23,29,31,37"},
    "prop1": {"equation": "prop1", "x": "1000", "t_interval": "2,40"},
}

numbers = st.one_of(st.integers(-5, 60).map(str), st.floats(-2, 2).map(repr))
huge = st.sampled_from(["1e300", "-1e300", "1e400", "-inf", "nan", "9" * 40, "-" + "9" * 40, "1e-300"])
junk = st.text(st.characters(codec="utf-8", exclude_characters="#"), max_size=6)
primes = st.lists(st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37, 41]), max_size=4)
# a sieve bound past any desk run must be refused, not sieved
interval = st.tuples(st.integers(-50, 60), st.one_of(st.integers(-50, 60), st.sampled_from([10**12, 10**30])))
VALUES = {
    **{key: st.one_of(numbers, huge, junk) for key in KNOWN_KEYS},
    "equation": st.one_of(st.sampled_from(sorted(BASE)), junk),
    "variant": st.one_of(st.sampled_from(["unconditional", "conditional"]), junk),
    **{key: st.one_of(primes.map(lambda p: ",".join(map(str, p))), numbers, huge, junk) for key in ("t1", "t2", "t3")},
    "t_interval": st.one_of(interval.map(lambda t: f"{t[0]},{t[1]}"), numbers, huge, junk),
}


@st.composite
def config_files(draw) -> tuple[str, bytes]:
    """(command, file bytes): a base config with up to three keys
    changed (x never upward) and one optional defect in the file itself."""
    command = draw(st.sampled_from(sorted(BASE)))
    params = dict(BASE[command])
    for key in draw(st.lists(st.sampled_from(KNOWN_KEYS), max_size=3, unique=True)):
        if key == "x":
            params[key] = draw(st.one_of(st.integers(-5, int(params[key])).map(str), junk, st.just("-1e300")))
        else:
            params[key] = draw(VALUES[key])
    lines = [f"{key}={value}" for key, value in params.items()]
    defect = draw(st.sampled_from(["none", "duplicate", "unknown key", "no equals sign", "not UTF-8"]))
    at = draw(st.integers(0, len(lines)))
    if defect == "duplicate":
        lines.insert(at, lines[at % len(lines)])
    elif defect == "unknown key":
        lines.insert(at, "cap=5")
    elif defect == "no equals sign":
        lines.insert(at, "x 5")
    data = "\n".join(lines).encode()
    if defect == "not UTF-8":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return command, data


def names_a_key(err: str, data: bytes, path: Path) -> bool:
    """Whether a one-line error message names a config key, a line of the file
    data or the file."""
    found = re.match(r"config error: config key '([^']*)': ", err)
    if found is None:
        return str(path) in err
    named = found.group(1)
    return re.fullmatch(r"line \d+", named) is not None or all(
        k in KNOWN_KEYS or f"{k}=".encode() in data for k in named.split("/")
    )


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process run; argparse's usage exit counts as the code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    out, err = out.getvalue(), err.getvalue()
    assert code in range(5), (code, err)
    assert "Traceback" not in out + err
    assert not caught, [str(w.message) for w in caught]  # a warning would print more lines on stderr
    assert len(err.splitlines()) <= 1, err  # exit 0 may warn of a degenerate harvest
    if code:
        assert out == "" and err.count("\n") == 1, (code, out, err)
    return code, out, err


@settings(derandomize=True, max_examples=150, deadline=None)
@given(config_files())
@example(("thm1", "\n".join(f"{k}={v}" for k, v in BASE["thm1"].items()).encode()))
@example(("prop1", b"equation=prop1\nx=1000\nt_interval=2,1000000000000\n"))
def test_cli_config_fuzz(case):
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(data)
        code, _, err = run_cli([command, "--config", str(path)])
    if code == 1:
        assert names_a_key(err, data, path), err


CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
# quick runs of the commands that read an integer flag of NUMERIC_FLAGS
ARGVS = [
    ["verify", "charsums", "--qmax", "12", "--trials", "2", "--seed", "5"],
    ["verify", "sieve", "--trials", "2", "--seed", "5"],
    ["verify", "circle", "--qmax", "12", "--seed", "5"],
    ["siegel", "--alpha", "3,5,7", "--bound", "7"],
    ["oracle", "sunit_pairs", "--primes", "2,3", "--bound", "100"],
    ["oracle", "prop1_triples", "--primes", "2,3", "--bound", "100"],
    ["oracle", "linear_count", "--a-set", "5,7", "--c-set", "2,3", "--bound", "10"],
    ["smooth", "--primes", "2,3,5", "--lo", "1", "--hi", "100", "--cap", "50"],
    ["frontier", "--kmax", "4"],
    ["thm1", "--config", str(CONFIGS / "thm1_desk.cfg"), "--threads", "1"],
]
NUMERIC_FLAGS = ("--qmax", "--trials", "--kmax", "--seed", "--bound", "--cap", "--threads")
# the lower bound of each bounded flag, by command: a value below it, or no integer, is a usage error
LEAST = {
    "sunit_pairs": {"--bound": 0, "--cap": 0},
    "prop1_triples": {"--bound": 0, "--cap": 0},
    "linear_count": {"--bound": 0, "--cap": 0},
    "smooth": {"--cap": 0},
    "charsums": {"--qmax": 3, "--trials": 1},
    "sieve": {"--trials": 1},
    "circle": {"--qmax": 8},
    "frontier": {"--kmax": 2},
}
# the upper bound of each flag that has one, by command: a value above it exits 4 before the run
MOST = {
    "charsums": {"--qmax": 1000, "--trials": 10_000},
    "sieve": {"--trials": 10_000},
    "circle": {"--qmax": 100_000},
    "frontier": {"--kmax": 20},
}


def _below(text: str, least: int = 0) -> bool:
    """Whether int() refuses text or reads it below least, so that no run grows with it."""
    try:
        return int(text) < least
    except ValueError:
        return True


bad_values = st.one_of(
    st.integers(-(10**30), 0).map(str),
    st.integers(-5, 0).map(str),
    st.sampled_from(["1e3", "2.5", "nan", "-inf", "0x10", "", "-", "--", "seven"]),
    junk,
).filter(_below)


@st.composite
def argvs(draw) -> list[str]:
    """A quick argv with one or two defects; values stay negative or non-numeric."""
    argv = list(draw(st.sampled_from(ARGVS)))
    for _ in range(draw(st.integers(1, 2))):
        flags = [i for i, tok in enumerate(argv) if tok.startswith("--")]
        defect = draw(st.sampled_from(["bad value", "unknown flag", "repeated flag", "missing value"]))
        numeric = [i for i in flags if argv[i] in NUMERIC_FLAGS and i + 1 < len(argv)]
        if defect == "bad value" and numeric:
            argv[draw(st.sampled_from(numeric)) + 1] = draw(bad_values)
        elif defect == "unknown flag":
            at = draw(st.sampled_from([len(argv), *flags]))
            flag = draw(st.sampled_from(["--bogus", "--cap", "--kmax", "--q", "-x", *NUMERIC_FLAGS]))
            argv[at:at] = [flag, draw(bad_values)] if draw(st.booleans()) else [flag]
        elif defect == "repeated flag" and numeric:
            i = draw(st.sampled_from(numeric))
            argv += [argv[i], draw(st.one_of(st.just(argv[i + 1]), bad_values))]
        elif defect == "missing value" and flags:
            i = draw(st.sampled_from(flags))
            del argv[i + 1 : i + 2]
    return argv


@settings(derandomize=True, max_examples=150, deadline=None)
@given(argvs())
@example(["verify", "charsums", "--qmax", "12", "--trials", "2", "--seed", "-3"])
@example(["siegel", "--alpha", "3,5,7", "--bound"])
@example(["verify", "sieve", "--trials", "2", "--trials", "x"])
@example(["oracle", "sunit_pairs", "--primes", "2,3", "--bound", "100", "--bogus", "a\nb"])
# a negative --cap or --bound is a usage error: exit 1, naming the flag
@example(["oracle", "sunit_pairs", "--primes", "2,3", "--bound", "100", "--cap", "-1"])
@example(["oracle", "prop1_triples", "--primes", "2,3", "--bound", "100", "--cap", "-1"])
@example(["oracle", "linear_count", "--a-set", "5,7", "--c-set", "2,3", "--bound", "10", "--cap", "-1"])
@example(["smooth", "--primes", "2,3,5", "--lo", "1", "--hi", "100", "--cap", "-1"])
@example(["oracle", "sunit_pairs", "--primes", "2,3", "--bound", "-1"])
@example(["oracle", "prop1_triples", "--primes", "2,3", "--bound", "-1"])
@example(["oracle", "linear_count", "--a-set", "5,7", "--c-set", "2,3", "--bound", "-1"])
# a value below a flag's lower bound is a usage error too: one line, naming the flag
@example(["verify", "sieve", "--trials", "0"])
@example(["frontier", "--kmax", "1"])
@example(["verify", "charsums", "--qmax", "2"])
@example(["verify", "circle", "--qmax", "7"])
# a value above a flag's upper bound exits 4 before the work it bounds: one line, naming the flag
@example(["verify", "sieve", "--trials", "100000000", "--seed", "5"])
@example(["verify", "charsums", "--qmax", "12", "--trials", "10001", "--seed", "5"])
def test_cli_argv_fuzz(argv):
    code, _, err = run_cli(argv)
    command = argv[1] if argv[0] in ("oracle", "verify") else argv[0]
    least, most = LEAST.get(command, {}), MOST.get(command, {})
    pairs = list(zip(argv, argv[1:]))
    if any(flag in least and _below(value, least[flag]) for flag, value in pairs):
        assert code == 1 and any(flag in err for flag in argv if flag.startswith("--")), err
    elif any(flag in most and not _below(value, most[flag] + 1) for flag, value in pairs):
        assert code == 4 and any(flag in err for flag in most), err
