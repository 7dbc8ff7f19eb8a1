"""Smoke tests: the scripts under scripts/ and README's library example run
against the package as it stands."""

import os
import pathlib
import re
import subprocess
import sys

import retailsim
import retailsim.config

from conftest import shorten

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    src = str(pathlib.Path(retailsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_refund_penalty_demo_runs():
    proc = run_script("refund_penalty_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "abandoned refunds:     1" in proc.stdout
    assert "overall satisfaction:  -4" in proc.stdout


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The example's config on a 1-day horizon, so its 100-replication sweep is quick.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    load = retailsim.config.load_config
    monkeypatch.setattr(retailsim.config, "load_config",
                        lambda path: shorten(load(ROOT / path), days=1))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("[(") and ", 'arrival', None)" in out  # the first trace rows
    assert "A&TV                5   20" in out  # the summary's last cell
    assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 5 * 20
