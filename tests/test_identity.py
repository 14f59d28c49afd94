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


def _corpus_targets():
    """The target keys of every corpus command, `target.` prefixes dropped, defaults filled in."""
    from hmclab.config import TARGET_KEYS, target_family

    for _, argv, config in identity.corpus():
        if config is None and "--config" not in argv:
            continue
        text = config if config is not None else identity.INPUTS[argv[argv.index("--config") + 1]]
        keys = dict(line.split(" = ", 1) for line in text.splitlines())
        keys = {k.removeprefix("target."): v for k, v in keys.items()}
        family = target_family(keys)
        yield family, {**TARGET_KEYS[family], **keys}


def test_corpus_covers_every_potential_and_both_logistic_data_sources():
    from hmclab.targets import _POTENTIALS

    targets = list(_corpus_targets())
    assert {t["potential"] for family, t in targets if family == "ridge"} == set(_POTENTIALS)
    logistic = [t for family, t in targets if family == "logistic"]
    assert {t["data"] is None for t in logistic} == {True, False}  # synthetic and a CSV
    assert any(float(t["alpha2"]) == 0.0 for t in logistic)
