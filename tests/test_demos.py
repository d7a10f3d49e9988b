import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# Keyword arguments that keep a demo's smoke run short; the rest run at their defaults.
SMALL = {"lrmc_completion": {"n": 2, "iters": 10}}


@pytest.mark.parametrize("name", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(**SMALL.get(name, {}))
    assert capsys.readouterr().out.strip()


def test_readme_library_example_runs(capsys):
    readme = (DEMOS.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library example)", "exec"), {})
    assert capsys.readouterr().out.strip()
