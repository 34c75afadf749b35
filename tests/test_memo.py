"""The memo policy: every process-wide memo is a bounded ``lru_cache``."""

import importlib
import pkgutil
import sys
import threading
from fractions import Fraction
from pathlib import Path

import sumkit
from sumkit import cli, contacts, gluing, hurwitz, series, severi
from sumkit.contacts import ContactMultiset, IntersectionMatrix, partitions

MEMOS = (
    cli.build_parser,
    contacts.enumerate_multisets,
    contacts._dual_multiset_cached,
    contacts.glue_weights,
    gluing._rel_key,
    gluing.identity_element,
    gluing._neck_index,
    gluing._neck_step,
    hurwitz._build_table,
    series._ratio,
    severi._shed_terms,
    severi.tw_value,
)


def _package_lru_caches():
    found = set()
    for info in pkgutil.iter_modules(sumkit.__path__):
        module = importlib.import_module(f"sumkit.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                found.add(value)
    return found


def test_every_memo_is_a_bounded_lru_cache():
    assert _package_lru_caches() == set(MEMOS)
    for memo in MEMOS:
        maxsize = memo.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0, memo


NUMBER_WORDS = ("zero one two three four five six seven eight nine ten "
                "eleven twelve thirteen fourteen fifteen sixteen").split()


def test_readme_lists_every_memo():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph, = [p for p in readme.split("\n\n")
                  if "there is no other memo mechanism" in p]
    paragraph = " ".join(paragraph.split())
    assert f"The {NUMBER_WORDS[len(MEMOS)]} memos" in paragraph
    for memo in MEMOS:
        name = f"{memo.__module__.rpartition('.')[2]}.{memo.__name__}"
        assert f"`{name}`" in paragraph, name


def _square_zero(cutoff):
    """Neck unit plus a residual whose convolution square is cut off."""
    base = cutoff // 2 + 1
    r = gluing.RelSeries(gluing.neck_geometry(1, 2), 2, cutoff, {
        gluing.RelKey((0, base), 0, (ContactMultiset(), ContactMultiset())):
            Fraction(3, 2),
        gluing.RelKey((1, base), 2, (ContactMultiset([((1, 0), 1)]),
                                     ContactMultiset([((1, 1), 1)]))): -2,
    })
    return _unit(cutoff) + r


def _unit(cutoff):
    return gluing.identity_element(gluing.neck_geometry(1, 2),
                                   IntersectionMatrix.sphere_pairing(),
                                   cutoff)


def _workload():
    """Severi numbers and Hurwitz numbers up to degree 6, neck units, and
    the neck sums n = 1..5 on one square-zero series per cutoff 4..6."""
    out = []
    for d in range(1, 7):
        for delta in range(severi.genus(d, 0) + 1):
            out.append(("severi", d, delta))
        for alpha in partitions(d):
            for g in (0, 1):
                out.append(("hurwitz", d, g, alpha))
    for cutoff in range(3, 7):
        out.append(("unit", cutoff))
    for cutoff in range(4, 7):
        twf = _square_zero(cutoff)
        for n in range(1, 6):
            out.append(("neck", twf, n))
    return out


def _compute(item):
    if item[0] == "severi":
        return severi.severi_number(item[1], item[2])
    if item[0] == "hurwitz":
        return hurwitz.hurwitz_number(*item[1:])
    if item[0] == "neck":
        return gluing.neck_identity(item[1], item[2],
                                    IntersectionMatrix.sphere_pairing())
    return _unit(item[1])


def _clear_all():
    for memo in MEMOS:
        memo.cache_clear()


def test_concurrent_use_gives_the_serial_results():
    work = _workload()
    _clear_all()
    serial = [_compute(item) for item in work]
    _clear_all()
    n_threads = 4
    results = [None] * n_threads
    errors = []

    def worker(index):
        # each thread walks the work in its own order, so the threads
        # fill the same memos at different keys at once
        shift = index * len(work) // n_threads
        order = list(range(shift, len(work))) + list(range(shift))
        try:
            out = [None] * len(work)
            for i in order:
                out[i] = _compute(work[i])
            results[index] = out
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for out in results:
        assert out == serial
