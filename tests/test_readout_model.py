"""One readout model: a step engine learns the discrimination mode only
through K(z) = `DiscriminationMode.keep_weights(n)`.  An `ast` scan of
src/ghzpurify finds where the mode's kind is read, as a `ModeKind` member
or a `.kind` attribute: never in the engines and the code that drives them,
and in `exact` only inside the brute-force oracle, which models the readout
on its own as the reference the dense steps are checked against."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghzpurify"
ENGINE_FILES = ("purify.py", "mc.py", "schedule.py", "validation.py")
ORACLE = {"_kept_pair_state", "bruteforce_step"}
GATE = "check_ideal_readout"


def kind_reads(source: str) -> list[str]:
    """The top-level definition ("<module>" outside any) around each
    `ModeKind.<member>` or `<expr>.kind` that source spells."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "kind"
                    or isinstance(node.value, ast.Name) and node.value.id == "ModeKind"):
                found.append(where)
    return found


def names(source: str) -> set[str]:
    """Every name that source defines, imports or reads."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


SOURCES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("name", ENGINE_FILES)
def test_engines_read_no_mode_kind(name):
    assert kind_reads(SOURCES[name]) == []


def test_exact_reads_the_kind_only_in_the_brute_force_oracle():
    assert set(kind_reads(SOURCES["exact.py"])) <= ORACLE


def test_no_ideal_readout_gate():
    assert [name for name, source in SOURCES.items() if GATE in names(source)] == []


@pytest.mark.parametrize("source, reads", [
    ("def f(mode):\n    return mode.kind is ModeKind.EVEN_PLUS_ODD\n", ["f", "f"]),
    ("BOTH = ModeKind.EVEN_PLUS_ODD\n", ["<module>"]),
    ("from .optics import ModeKind\ndef f(mode):\n    return mode.keep_weights(3)\n", []),
    ("class A:\n    def f(self, m):\n        return m.kind.value\n", ["A"]),
], ids=["member-and-kind", "module-level", "import-only", "in-a-class"])
def test_the_scan_finds_exactly_the_kind_reads(source, reads):
    assert kind_reads(source) == reads


def test_the_scan_finds_the_gate_where_it_is_defined_imported_or_called():
    for source in ("def check_ideal_readout(mode):\n    pass\n",
                   "from .purify import check_ideal_readout\n",
                   "purify.check_ideal_readout(mode)\n"):
        assert GATE in names(source)
    assert GATE not in names("'check_ideal_readout'\n")
