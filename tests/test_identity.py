"""scripts/identity.py, the byte-identity check between two source trees."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "scripts" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_corpus_covers_every_subcommand():
    from hmclab.cli import build_parser

    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for _, argv, _ in identity.corpus()} == set(subcommands)
    assert [name for name, _, _ in identity.corpus(quick=True)] == [
        name for name, _, _ in identity.corpus()]


def test_the_quick_corpus_reruns_bit_for_bit_in_one_tree():
    report = identity.compare(str(ROOT), str(ROOT), quick=True)
    assert len(report) == 1 and report[0].endswith(" files compared"), "\n".join(report)
    assert int(report[0].split()[0]) > 100


def test_first_difference_names_the_line_and_both_sides():
    assert identity._first_difference(b"a\nb\nc\n", b"a\nB\nc\n") == (2, b"b\n", b"B\n")
    assert identity._first_difference(b"a\n", b"a\nb\n") == (2, b"<end of file>", b"b\n")
