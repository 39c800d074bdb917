"""The CLI's own front end against its oracles.

* ``cli._json_text`` writes the report directly; ``json.dumps(x,
  indent=2)`` is the oracle, byte for byte.
* ``cli._read_argv`` reads argv straight from ``cli.GRAMMAR``; the
  argparse parser ``cli.build_parser`` makes from the same table is the
  oracle: the reader gives argparse's Namespace or None, and None
  whenever argparse stops with an error or with ``--help``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergshift import cli

# ---------------------------------------------------------------------------
# the JSON writer

_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\b\f\n\r\t'),
    st.characters(),
    st.characters(min_codepoint=0x80),
    st.characters(min_codepoint=0x10000),
), max_size=8)
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4),
), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], [{}]]})
@example([[1, [2, [3]]], {"k": [True, None, "é\"\\\n"]}])
def test_writer_is_byte_equal_to_indented_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5,
    float("nan"),
    {"x": 0.5},
    [1, [2.0]],
    {1: "one"},
    {"a": {None: 1}},
    {"a": {True: 1}},
    object(),
    [object()],
    {"s": {1, 2}},
])
def test_writer_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


# ---------------------------------------------------------------------------
# the argv reader

_BAD_INTS = ["", "x", "1.5", " 7", "+3", "1_2", "0x10", "٣", "9" * 5000, "-1", "-3"]
_SYMBOLS = ["r^2", "1:r^2", "2:r^3", "0:r", "", "2*r+3*r^4", "r=2", "1e-5", "٣"]
_DASHED = ["-r^2", "-r", "-1:r", "--p", "-r + 1", "-1e-5", "-"]


def _good_value(flag):
    if flag.choices is not None:
        return st.sampled_from(flag.choices)
    if flag.type is int:
        return st.integers(0, 10**30).map(str)
    return st.sampled_from(_SYMBOLS)


@st.composite
def _good_tokens(draw, flag):
    """The flag by its exact name, with a value argparse takes, spaced or
    joined; joined, the value may also start with ``-``."""
    if draw(st.booleans()):
        return [flag.name, draw(_good_value(flag))]
    dashed = ["-1", "-12"] if flag.type is int else [] if flag.choices else _DASHED
    value = draw(st.sampled_from(dashed) if dashed and draw(st.booleans()) else _good_value(flag))
    return [f"{flag.name}={value}"]


@st.composite
def _good_argv(draw):
    """Leading ``--output`` flags, a subcommand, each required flag at
    least once and each optional one at most twice, in any order."""
    argv = []
    for flag in cli.GRAMMAR.flags:
        for _ in range(draw(st.integers(0, 2))):
            argv += draw(_good_tokens(flag))
    command = draw(st.sampled_from(cli.GRAMMAR.commands))
    argv.append(command.name)
    tokens = [draw(_good_tokens(flag)) for flag in command.flags
              for _ in range(draw(st.integers(1 if flag.required else 0, 2)))]
    for pair in draw(st.permutations(tokens)):
        argv += pair
    return argv


@st.composite
def _bad_tokens(draw, flag):
    """The flag abbreviated, without a value, or with a value that starts
    with ``-`` or that argparse rejects."""
    kind = draw(st.sampled_from(["abbreviated", "dashed"] * 2 + ["missing", "malformed"]))
    if kind == "abbreviated" and len(flag.name) > 3:
        value = draw(_good_value(flag))
        return [flag.name[:draw(st.integers(3, len(flag.name) - 1))], value]
    if kind == "dashed":
        return [flag.name, draw(st.sampled_from(["-1", "-12", "--"] + _DASHED))]
    if kind == "malformed":
        value = draw(st.sampled_from(
            ["xml", "", "JSON"] if flag.choices else _BAD_INTS if flag.type is int else ["--"]))
        return draw(st.sampled_from([[flag.name, value], [f"{flag.name}={value}"]]))
    return [flag.name]


_NOISE = st.sampled_from([
    "-h", "--help", "--", "-", "-p", "--bogus", "--output", "--output=text", "text",
    "extra", "", "frobnicate", "-1", "--sym", "--precision", "--p=",
    *(c.name for c in cli.GRAMMAR.commands),
    *sorted({f.name for c in cli.GRAMMAR.commands for f in c.flags}),
])


@st.composite
def _any_argv(draw):
    """A well-formed argv with some of it spoiled: a flag's tokens made
    bad, a flag dropped, a token inserted, or ``--output`` moved after the
    subcommand."""
    argv = draw(_good_argv())
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["spoil", "drop", "insert", "late output"]))
        if kind == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(_NOISE))
        elif kind == "late output":
            argv += draw(_good_tokens(cli.GRAMMAR.flags[0]))
        else:
            flags = [i for i, tok in enumerate(argv) if tok.startswith("--")]
            if not flags:
                continue
            i = draw(st.sampled_from(flags))
            name, eq, _ = argv[i].partition("=")
            end = i + 1 if eq or i + 1 == len(argv) or argv[i + 1].startswith("-") else i + 2
            command = next((c for c in cli.GRAMMAR.commands if c.name in argv), None)
            flag = next((f for f in (command.flags if command else ()) + cli.GRAMMAR.flags
                         if f.name == name), None)
            bad = [] if kind == "drop" or flag is None else draw(_bad_tokens(flag))
            argv[i:end] = bad
    return argv


def argparse_reads(argv):
    """``build_parser().parse_args(argv)``, or None where it stops with
    an error or after printing help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.build_parser().parse_args(argv)
    except (cli._UsageError, SystemExit):
        return None


def _agrees(argv):
    read = cli._read_argv(list(argv))
    oracle = argparse_reads(list(argv))
    if oracle is None:
        assert read is None
    elif read is not None:
        assert vars(read) == vars(oracle)
    return read


@settings(max_examples=300, deadline=None)
@given(_good_argv())
@example(["weight", "--p=-1", "--symbol=-r^2"])
@example(["--output", "text", "--output=json", "mellin", "--symbol", "r"])
@example(["apply", "--term", "1:r", "--term=2:r^3", "--k", "0", "--term", "3:r"])
def test_reader_reads_every_well_formed_argv(argv):
    assert _agrees(argv) is not None


@settings(max_examples=600, deadline=None)
@given(_any_argv())
@example(["weight", "--p", "1", "--symbol", "-r^2"])
@example(["weight", "--p", "-1", "--symbol", "r"])
@example(["mellin", "--symbol=--"])
@example(["weight", "--p", "1", "--symbol", "r", "--output", "text"])
@example(["scan", "--p", "1", "--s", "2", "--n", "2", "--d", "3", "--K"])
@example(["identity-check", "--id", "functional", "--p", "1", "--s", "2", "--n", "2",
          "--d", "3", "--m", "2", "--l", "3", "--samples", "5", "-h"])
def test_reader_gives_argparse_namespace_or_declines(argv):
    _agrees(argv)


def _plain_argv(command, joined, optional):
    """Each required flag of ``command`` once, and each optional one if
    ``optional``, with a value argparse takes."""
    argv = [command.name]
    for flag in command.flags:
        if flag.required or optional:
            value = flag.choices[0] if flag.choices else "1" if flag.type is int else "1:r^2"
            argv += [f"{flag.name}={value}"] if joined else [flag.name, value]
    return argv


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("command", cli.GRAMMAR.commands, ids=lambda c: c.name)
def test_reader_reads_every_command_in_both_forms(command, joined):
    for optional in (False, True):
        argv = _plain_argv(command, joined, optional)
        assert _agrees(argv) is not None
        assert _agrees(["--output", "text"] + argv) is not None
