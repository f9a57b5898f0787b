"""Every demo script still imports against the package's public names, and
the README's library quick start still runs.

Each ``demos/*.py`` is loaded as a module without calling its ``main()``,
so a demo that imports a removed name fails here instead of at its next
manual run.  The quick start is the first python block of ``README.md``,
run on a small synthetic ``tracks.csv``.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from comove import SyntheticSpec, gen_synthetic, write_trajectories

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    write_trajectories(gen_synthetic(SyntheticSpec(n_objects=20, n_times=30,
                                                   n_groups=2, seed=3)),
                       tmp_path / "tracks.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    kinds = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert "closed_swarm" in kinds
