import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = textwrap.dedent(
    """
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None, max_examples=5)
    @given(st.integers())
    def test_fails(n):
        assert False


    def test_runs_after_the_failure():
        pass
    """
)


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Under the repository's pytest settings a failing @given test used to end
    # the run with INTERNALERROR (its failure report imports a deprecated
    # module, and DeprecationWarning is an error), so no later test reported.
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output
