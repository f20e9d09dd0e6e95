"""The README's code runs and prints what its comments say it prints."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_prints_what_it_claims(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick tour", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    claims = [line.split("#", 1)[1].strip()
              for line in block.splitlines() if line.startswith("print(")]
    assert claims, "the quick tour has no print lines to check"
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == claims
