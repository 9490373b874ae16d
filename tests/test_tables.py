import pytest

from skewtmix import tables


@pytest.mark.parametrize("mixture_id", tables.MIXTURE_IDS)
def test_builtin_mixture_shape(mixture_id):
    d, m = (int(part[1:]) for part in mixture_id.split("_"))
    mix = tables.builtin_mixture(mixture_id)
    assert (mix.dim, mix.n_components) == (d, m)
    assert mix.weights.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("mixture_id", ["d4_m2", "d1_m6", "d3_m4", "d1_m1", "x"])
def test_unknown_mixture_id_rejected(mixture_id):
    with pytest.raises(ValueError, match="unknown mixture id"):
        tables.builtin_mixture(mixture_id)
