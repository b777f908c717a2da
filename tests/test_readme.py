"""The README's library tour runs, and every value its comments state holds."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_lines():
    text = README.read_text(encoding="utf-8")
    return text.split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0].splitlines()


def shown(value) -> str:
    """How a comment writes a value: an enum by its value, anything else by repr."""
    value = getattr(value, "value", value)
    return value if isinstance(value, str) else repr(value)


def test_library_tour_values():
    # a comment on an expression states its value, ending in "..." where the
    # digits shown are a prefix; a comment on a statement is prose
    namespace: dict = {}
    checked = 0
    for line in tour_lines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        try:
            compiled = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(compile(line, "README.md", "exec"), namespace)
            continue
        value = shown(eval(compiled, namespace))
        if comment.endswith("..."):
            assert value.startswith(comment[:-3]), line
        elif comment:
            assert value == comment, line
        checked += bool(comment)
    assert checked == 8
