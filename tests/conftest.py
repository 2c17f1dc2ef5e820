"""Print the BLAS thread settings in the session header, and after the
summary of a run with failures, because `-q` hides the header.  Dense solves
run on one OpenBLAS thread whatever the setting is, but ARPACK and numpy's
products on long vectors still split their sums over its threads, so a last
bit that moves with it shows which of those to look at.  numpy and scipy
each bundle their own OpenBLAS, with its own count; ARPACK and scipy.linalg
run on scipy's, numpy's products on numpy's.  Both counts are read from the
libraries, so they show what the solvers ran on, not only what was asked."""
import ctypes
import os


def _openblas_threads(package: str) -> str:
    """The thread count of the OpenBLAS bundled in package's wheel."""
    try:
        from pamlab.spectral import _openblas_function
    except ImportError:
        return "unknown"
    get_threads = _openblas_function(
        package, "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads")
    if get_threads is None:
        return "none bundled"
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    return str(get_threads())


def _blas_setting() -> str:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"OPENBLAS_NUM_THREADS: {threads}, OpenBLAS threads: numpy "
            f"{_openblas_threads('numpy')}, scipy {_openblas_threads('scipy')}, "
            f"os.cpu_count(): {os.cpu_count()}")


def pytest_report_header(config):
    return _blas_setting()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if terminalreporter.stats.get("failed") or terminalreporter.stats.get("error"):
        terminalreporter.write_line(_blas_setting())
