"""Every SVD numpy computes, seen where each one reaches LAPACK: the gufuncs
``svd``, ``svd_s`` and ``svd_f`` of ``numpy.linalg._umath_linalg``.
``numpy.linalg.svd`` calls them, and so do ``subspace.svd_values`` and
``subspace.svd_factors``, which skip its wrapper, so a count taken here
misses neither path."""

from numpy.linalg import _umath_linalg

# What each gufunc computes: the values alone, or thin or full U and V^H too.
KINDS = {"svd": "values", "svd_s": "thin", "svd_f": "full"}


def watch_svds(monkeypatch, record) -> None:
    """Call ``record(m, kind)``, with the matrix and the kind of factors
    ("values", "thin" or "full"), before every SVD from here on."""
    for name, kind in KINDS.items():
        real = getattr(_umath_linalg, name)

        def counted(m, *args, _real=real, _kind=kind, **kwargs):
            record(m, _kind)
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(_umath_linalg, name, counted)


def svd_counter(monkeypatch) -> list:
    """A list that gains the kind of every SVD from here on."""
    kinds = []
    watch_svds(monkeypatch, lambda m, kind: kinds.append(kind))
    return kinds
