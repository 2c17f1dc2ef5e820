"""Print the BLAS thread settings in the session header, and after the
summary of a run with failures, because `-q` hides the header.  Every
eigensolve, dense or ARPACK, and tensor_gap run on one OpenBLAS thread
whatever the setting is, but numpy's products elsewhere (lattice.norms and
grad_sq_grid, the quadrature head's dot) split sums of more than 10,000
entries over its threads, so a last bit that moves with it shows which of
those to look at.  numpy and scipy each bundle their own OpenBLAS, with its
own count; ARPACK and scipy.linalg run on scipy's, numpy's products on
numpy's.  Both counts are read from the libraries, so they show what the
solvers ran on, not only what was asked."""
import os


def _openblas_threads(package: str) -> str:
    """The thread count of the OpenBLAS bundled in package's wheel."""
    try:
        from pamlab import spectral
    except ImportError:
        return "unknown"
    threads = spectral._openblas_threads(package)
    return "none bundled" if threads is None else str(threads)


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
