"""Print the BLAS thread setting, on which the last bits of dense solves
depend: in the session header, and after the summary of a run with failures,
because `-q` hides the header."""
import os


def _blas_setting() -> str:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"OPENBLAS_NUM_THREADS: {threads}, os.cpu_count(): {os.cpu_count()}"


def pytest_report_header(config):
    return _blas_setting()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if terminalreporter.stats.get("failed") or terminalreporter.stats.get("error"):
        terminalreporter.write_line(_blas_setting())
