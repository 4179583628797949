"""Each input rule is written once, in `ghzpurify.ghz`: the number tests
(`is_integer`, `is_real`) and the weight check (`nonnegative`).  An `ast`
scan of src/ghzpurify finds where the parts of each rule are spelled."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghzpurify"
TYPE_TESTS = {"numbers.Integral", "numbers.Real", "np.integer"}
WEIGHT_MESSAGE = "weights must be >= -1e-10"


def rule_parts(source: str) -> tuple[list[str], int]:
    """The number-rule parts that source spells (the type tests of
    TYPE_TESTS, an import from numbers, and isinstance(..., bool)), and how
    many of its string constants hold WEIGHT_MESSAGE."""
    parts, messages = [], 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and ast.unparse(node) in TYPE_TESTS:
            parts.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            parts.append("from numbers import")
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
              and len(node.args) == 2 and any(isinstance(t, ast.Name) and t.id == "bool"
                                              for t in ast.walk(node.args[1]))):
            parts.append("isinstance(..., bool)")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            messages += WEIGHT_MESSAGE in node.value
    return parts, messages


SCANS = {path.name: rule_parts(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_number_type_tests_are_spelled_only_in_ghz():
    assert {name for name, (parts, _) in SCANS.items() if parts} == {"ghz.py"}


def test_weight_message_is_written_once_in_ghz():
    assert {name: messages for name, (_, messages) in SCANS.items() if messages} == {"ghz.py": 1}


@pytest.mark.parametrize("source, parts, messages", [
    ("import numbers\nisinstance(x, numbers.Real)\n", ["numbers.Real"], 0),
    ("isinstance(x, (int, np.integer)) and not isinstance(x, bool)\n",
     ["np.integer", "isinstance(..., bool)"], 0),
    ("from numbers import Integral\nisinstance(x, (bool, str))\n",
     ["from numbers import", "isinstance(..., bool)"], 0),
    ("type(x) is bool\nnp.integer\n", ["np.integer"], 0),
    ("raise ValueError(f'weights must be >= -1e-10 and not NaN, got {lo}')\n", [], 1),
    ("'weights must be >= 0'\n", [], 0),
], ids=["numbers-Real", "np-integer-and-bool", "from-numbers", "type-is-bool",
        "weight-message", "other-message"])
def test_the_scan_finds_exactly_the_rule_parts(source, parts, messages):
    found, count = rule_parts(source)
    assert sorted(found) == sorted(parts) and count == messages
