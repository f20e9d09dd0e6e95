"""The README's code runs and prints what its comments say it prints, and
the package publishes exactly the public names of its modules."""

from pathlib import Path
from types import ModuleType

import dighom
from dighom import bridge, chain, elementary, errors, image, singular

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


def test_package_publishes_the_public_names_of_its_modules():
    # errors has no __all__: its public names are its DighomError classes
    owner = {name: mod for mod in (image, chain, singular, elementary, bridge)
             for name in mod.__all__}
    owner.update((name, errors) for name, v in vars(errors).items()
                 if isinstance(v, type) and issubclass(v, errors.DighomError))
    public = {name for name, v in vars(dighom).items()
              if not name.startswith("_") and not isinstance(v, ModuleType)}
    assert public == set(owner)
    for name, mod in owner.items():
        assert getattr(dighom, name) is getattr(mod, name), name
