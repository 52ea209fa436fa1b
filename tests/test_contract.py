"""The CLI contract over generated arguments: exit 0, 2, 3 or 4, never a traceback.

Each example draws one subcommand with small values mixed with edge values
(moduli -3 to 9, MAX_MODULUS and MAX_MODULUS + 2, negative and zero bounds,
ranges up to 10^11, d up to 2^31 - 1, malformed lists and fractions), and runs
cli.main in process. Values are kept where each example's work stays small:
an accepted range is at most a few dozen primes, and --exact is drawn only
with a largest prime of at most 13.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from projheight.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_OK, EXIT_VIOLATION, main
from projheight.modular import MAX_MODULUS

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
EDGE_MODULI = (-3, 0, 1, 2, 4, 9, MAX_MODULUS, MAX_MODULUS + 2)
HUGE = (10**8, 10**11, MAX_MODULUS, MAX_MODULUS + 2)

small = st.integers(-3, 40)
modulus = st.one_of(st.sampled_from(SMALL_PRIMES), st.sampled_from(EDGE_MODULI))
bound = st.one_of(small, st.sampled_from(HUGE))
coords = st.one_of(
    # mostly a valid connection set or point ...
    st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True),
    # ... or one with zeros, duplicates, negatives and huge entries
    st.lists(st.one_of(small, st.sampled_from((MAX_MODULUS - 1, 10**11))), max_size=4),
).map(lambda xs: ",".join(map(str, xs))) | st.sampled_from(("1,,2", "x", "1,2,"))
budget = st.one_of(st.none(), st.integers(-1, 10**5), st.just("x"))
fraction = st.sampled_from(("0", "1/4", "1/2", "3", "-1", "1/0", "0.5", "x"))
fmt = st.sampled_from(("text", "csv", "json"))


def option(name, values):
    """A strategy for [name, value] or [], the option left out."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def flag(name):
    return st.sampled_from(([], [name]))


def with_budget(argv):
    return st.tuples(st.just(argv), budget).map(
        lambda t: t[0] + ([] if t[1] is None else ["--budget", str(t[1])])
    )


height_argv = st.tuples(modulus, coords).map(lambda t: ["height", "-p", str(t[0]), "-a", t[1]])
table_argv = st.tuples(option("--pmin", bound), option("--pmax", bound), flag("--paper-range")).map(
    lambda t: ["table", *t[0], *t[1], *t[2]]
)
spectrum_argv = st.tuples(
    modulus, st.one_of(st.integers(2, 5), st.sampled_from((-1, 0, 1, 12, 64, 3000, 2**31 - 1)))
).map(lambda t: ["spectrum", "-p", str(t[0]), "-d", str(t[1])])
gaps_argv = st.tuples(
    option("--pmin", bound),
    st.one_of(st.integers(-3, 200), st.sampled_from(HUGE)),
    option("--r", st.integers(-1, 4)),
    option("--c", fraction),
).map(lambda t: ["gaps", *t[0], "--pmax", str(t[1]), *t[2], *t[3]])
cayley_argv = st.tuples(modulus, coords, flag("--css"), flag("--girth")).map(
    lambda t: ["cayley", "-p", str(t[0]), "-A", t[1], *t[2], *t[3]]
)
# the exact audits stay cheap only on small graphs
cayley_exact_argv = st.tuples(st.sampled_from((2, 3, 5, 7, 11, 13)), coords).map(
    lambda t: ["cayley", "-p", str(t[0]), "-A", t[1], "--exact"]
)
# a d past the primes leaves no class; HUGE ranges are refused by the walk, or
# come out empty at d = 2^31 - 1
scan_pmax_d = st.one_of(
    st.tuples(st.integers(-3, 31), st.integers(-1, 4)),
    st.tuples(st.integers(-3, 13), st.sampled_from((12, 2**31 - 1))),
    st.tuples(st.sampled_from(HUGE), st.one_of(st.integers(-1, 4), st.just(2**31 - 1))),
)
scan_argv = scan_pmax_d.map(lambda t: ["scan", "--pmax", str(t[0]), "-d", str(t[1])])
scan_exact_argv = scan_pmax_d.filter(lambda t: t[0] <= 13).map(
    lambda t: ["scan", "--pmax", str(t[0]), "-d", str(t[1]), "--exact"]
)

argvs = st.tuples(
    st.one_of(
        height_argv.flatmap(with_budget),
        table_argv,
        spectrum_argv.flatmap(with_budget),
        gaps_argv,
        cayley_argv,
        cayley_exact_argv,
        scan_argv.flatmap(with_budget),
        scan_exact_argv,
    ),
    fmt,
).map(lambda t: [*t[0], "--format", t[1]])


def invoke(argv):
    """cli.main(argv) with its streams captured; argparse's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True)
@given(argvs)
def test_every_invocation_keeps_the_exit_contract(argv):
    code, out, err = invoke(argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_LIMIT, EXIT_VIOLATION), (argv, code, err)
    if code in (EXIT_INPUT, EXIT_LIMIT):
        lines = err.splitlines()
        assert out == "" and lines, argv
        # main's one error line, or argparse's usage and then its error line
        if lines[0].startswith("usage: "):
            assert code == EXIT_INPUT and ": error: " in lines[-1], argv
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), argv
        return
    # exit 4 prints the report with its violations, so it is checked like exit 0
    assert err == "", argv
    if argv[-1] == "json":
        json.loads(out)
    assert invoke(argv) == (code, out, err), argv
