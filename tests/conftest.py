"""Print the BLAS thread setting in the session header, and after the
summary of a run with failures, because `-q` hides the header.  Dense solves
run on one OpenBLAS thread whatever the setting is, but ARPACK and numpy's
products on long vectors still split their sums over its threads, so a last
bit that moves with it shows which of those to look at."""
import os


def _blas_setting() -> str:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"OPENBLAS_NUM_THREADS: {threads}, os.cpu_count(): {os.cpu_count()}"


def pytest_report_header(config):
    return _blas_setting()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if terminalreporter.stats.get("failed") or terminalreporter.stats.get("error"):
        terminalreporter.write_line(_blas_setting())
