"""Seeded fuzz of the CLI exit contract over valid argvs.

`test_edited_json_exits_0_or_2` takes one valid argv and edits one JSON
value at any depth, deletes one key, or adds one key that no loader reads,
using replacements from a fixed set.  Shapes and types change, never
magnitudes, so no run can ask for large resources.
`test_edited_oracle_argv_exits_0_or_2` makes one character edit to the
text of one of `TEXT_FLAGS` in an `hs`, `mult --with-hs`, `arc --minimal`,
`arcs-sample`, `verify-A` or `family` argv; the oracle's column cap keeps a
large `--tmax` small, and the branch budget a large node count.  The curve
commands have no resource bound, so their `--N`, `--seed` and `--families`
values are single digits, which one edit keeps at two digits or fewer.
Every run must exit 0 or 2; on exit 2 stdout is empty and stderr is exactly
one JSON line.  `golden` is left out: a golden mismatch exits 3 by design.
"""

import json
import random

from nodaltheta.cli import main

TWO_NODES = '{"nodes":[[0,1],[2,3]]}'

VALID = [
    ["theta", "--curve", TWO_NODES, "--sheaf", '{"dL":1,"glue":{"0":1,"1":1}}'],
    [
        "family", "--curve", '{"nodes":[[0,1]]}',
        "--sheaf", '{"nonfree":[],"dL":0,"glue":{"0":1}}',
        "--family", '{"glueSeries":{"0":"1+t"},"moving":[{"base":7,"trajectory":"7+2*t"}]}',
        "--aux", "[2]", "--N", "8",
    ],
    [
        "arc", "--model", "n=1,m=1", "--f", "v1-u1^2",
        "--images", '{"u1":"0","v1":"t","w1":"0"}',
    ],
    [
        "verify-A", "--curve", TWO_NODES,
        "--sheaf", '{"nonfree":[0],"dL":0,"glue":{"1":1}}', "--families", "1",
    ],
    [
        "classify", "--curve", '{"nodes":[["1/2","3/2"],[2,5]]}',
        "--sheaf", '{"nonfree":[0],"dL":0,"glue":{"1":"2/3"}}',
    ],
]

TEXT = [
    ["hs", "--vars", "x,y,z", "--rel", "y^2-x^3", "--f", "x-z^3", "--tmax", "10"],
    ["hs", "--vars", "u,v,w", "--rel", "u*v", "--f", "w^2+u-v", "--tmax", "12"],
    ["mult", "--model", "n=1,m=1", "--f", "v1-u1^2+w1^3", "--with-hs", "--tmax", "10"],
    ["arc", "--model", "n=1,m=1", "--f", "v1-u1^2+w1^3", "--minimal"],
    ["arcs-sample", "--model", "n=1,m=1", "--f", "v1-u1^2+w1^3", "--count", "20"],
    [
        "verify-A", "--curve", TWO_NODES, "--sheaf", '{"nonfree":[0],"dL":0,"glue":{"1":1}}',
        "--N", "8", "--seed", "0", "--families", "1",
    ],
    [
        "family", "--curve", '{"nodes":[[0,1]]}',
        "--sheaf", '{"nonfree":[],"dL":0,"glue":{"0":1}}', "--N", "8", "--aux", "[2]",
    ],
]
TEXT_FLAGS = (
    "--tmax", "--vars", "--rel", "--f", "--model", "--N", "--seed", "--families", "--aux",
)
ALPHABET = "xyzuvw123069+-*^/(),. é"

REPLACEMENTS = [None, True, 0, -1, "x", [], {}, [[]]]
DELETE = object()
UNKNOWN_KEY = "unread"
RUNS = 500
TEXT_RUNS = 400


def edits(value, path=()):
    """Every (path, replacement) edit of one JSON value; DELETE drops a key,
    and a path ending in UNKNOWN_KEY adds one."""
    for replacement in REPLACEMENTS:
        yield path, replacement
    if isinstance(value, dict):
        yield path + (UNKNOWN_KEY,), 0
        for key, child in value.items():
            yield path + (key,), DELETE
            yield from edits(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from edits(child, path + (index,))


def apply(value, path, replacement):
    if not path:
        return replacement
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return value


def mutants():
    for argv in VALID:
        for position, arg in enumerate(argv):
            if arg.startswith(("{", "[")):
                value = json.loads(arg)
                for path, replacement in edits(value):
                    text = json.dumps(apply(value, path, replacement))
                    yield argv[:position] + [text] + argv[position + 1:]


def text_edits():
    """Every argv with one character deleted, replaced or inserted in the
    value of one of `TEXT_FLAGS`."""
    for argv in TEXT:
        for position in range(1, len(argv)):
            if argv[position - 1] not in TEXT_FLAGS:
                continue
            text = argv[position]
            edited = [text[:i] + text[i + 1:] for i in range(len(text))]
            for char in ALPHABET:
                edited += [text[:i] + char + text[i + 1:] for i in range(len(text))]
                edited += [text[:i] + char + text[i:] for i in range(len(text) + 1)]
            for new in edited:
                yield argv[:position] + [new] + argv[position + 1:]


def assert_exit_contract(code, captured, argv):
    assert code in (0, 2), (argv, captured.err)
    if code == 2:
        assert captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1, (argv, captured.err)
        assert isinstance(json.loads(lines[0])["error"], str)


def test_valid_argvs_exit_0(capsys):
    for argv in VALID + TEXT:
        assert main(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().err == ""


def test_edited_json_exits_0_or_2(capsys):
    cases = list(mutants())
    assert len(cases) > RUNS
    for argv in random.Random(0).sample(cases, RUNS):
        assert_exit_contract(main(argv), capsys.readouterr(), argv)


def test_edited_oracle_argv_exits_0_or_2(capsys):
    cases = list(text_edits())
    assert len(cases) > TEXT_RUNS
    for argv in random.Random(1).sample(cases, TEXT_RUNS):
        assert_exit_contract(main(argv), capsys.readouterr(), argv)
