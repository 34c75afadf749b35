import pytest

from sumkit import gluing


@pytest.fixture
def doubled_glue_weight(monkeypatch):
    """Make ``convolve`` glue with the first dual weight of the least
    degree-1 multiset doubled.  Convolution stays linear but the unit law
    breaks.  The neck step memo and its index memo are cleared before and
    after, so no step crosses between the doubled and the true weights."""
    real = gluing.glue_weights

    def doubled(degree, q):
        table = real(degree, q)
        if degree != 1:
            return table
        table = dict(table)
        m = min(table)
        length, ((dual, wn, wd), *rest) = table[m]
        table[m] = (length, ((dual, 2 * wn, wd), *rest))
        return table

    memos = (gluing._neck_step, gluing._neck_index)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(gluing, "glue_weights", doubled)
    yield
    for memo in memos:
        memo.cache_clear()
