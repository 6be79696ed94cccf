"""networkx is imported on first multihop use, never by ``import repro``.

Each check runs in a fresh interpreter, since this suite's own process has
long imported networkx through the multihop tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def run_python(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_SOLVE_CACHE"] = "0"
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_and_joint_simulate_leave_networkx_unloaded(tmp_path):
    result = run_python(
        """
        import sys
        import repro
        assert "networkx" not in sys.modules, "import repro loaded networkx"
        from repro import ScenarioConfig, simulate
        config = ScenarioConfig.small(seed=3).with_overrides(num_slots=20)
        results = simulate(config, ("mdp", "lyapunov"), seeds=2)
        assert len(results) == 2
        assert "networkx" not in sys.modules, "a joint simulate loaded networkx"
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_multihop_without_networkx_raises_configuration_error(tmp_path):
    result = run_python(
        """
        import sys
        sys.modules["networkx"] = None  # any import of networkx now fails
        from repro import ScenarioConfig, simulate
        from repro.exceptions import ConfigurationError
        config = ScenarioConfig.small(seed=3).with_overrides(num_slots=20)
        try:
            simulate(config, "lce")
        except ConfigurationError as error:
            assert "networkx" in str(error), error
        else:
            raise AssertionError("multihop ran without networkx")
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
