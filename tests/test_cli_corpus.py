"""The CLI byte corpus of cli_corpus.py: every command prints the exit code,
stdout and stderr whose sha256 cli_corpus.json recorded."""

import pytest

import cli_corpus
from grassgeo import cli, jsonio


@pytest.fixture(scope="module")
def results():
    """{id: (exit code, stdout, stderr)} of the whole corpus, run once."""
    return cli_corpus.outputs(cli_corpus.entries())


def test_every_command_prints_its_recorded_bytes(results):
    found = {key: cli_corpus.digest(result) for key, result in results.items()}
    assert cli_corpus.moved(found, cli_corpus.recorded()) == []


def test_the_corpus_covers_every_subcommand_on_both_signs(results):
    subcommands = set(cli.build_parser()._subparsers._group_actions[0].choices)
    assert len(subcommands) == 17
    seen = {(e.argv[0], e.argv[4]) for e in cli_corpus.entries() if e.argv[1:2] == ("--space",)}
    assert {(c, k) for c in subcommands for k in cli_corpus.KINDS} <= seen
    codes = [code for code, _, _ in results.values()]
    assert min(codes.count(0), codes.count(1)) > 100 and 2 in codes
    # a typed error prints its JSON object on stdout and nothing on stderr
    assert all(err == "" for code, _, err in results.values() if code != 2)


def test_the_corpus_passes_every_option_of_every_subcommand():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    passed = {(e.argv[0], a) for e in cli_corpus.entries() for a in e.argv[1:]}
    missing = [
        (name, action.option_strings)
        for name, parser in subparsers.items()
        for action in parser._actions
        if action.dest != "help" and not any((name, o) in passed for o in action.option_strings)
    ]
    assert missing == []


def test_a_moved_byte_is_reported(monkeypatch):
    # 16 significant digits instead of 17 moves the golden pairs' distances
    golden = [e for e in cli_corpus.entries() if e.id.endswith(("golden", "golden verify"))]
    expected = {e.id: cli_corpus.recorded()[e.id] for e in golden}
    monkeypatch.setattr(jsonio, "_fmt_float", lambda x: format(float(x), ".16g"))
    moved = cli_corpus.moved(cli_corpus.digests(golden), expected)
    assert "distance 2x2 compact golden" in moved and len(moved) >= 21
