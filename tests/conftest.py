import math
from collections import Counter

import pytest

from ratchet_lab.model import EffectivePlanck, RatchetPotential


@pytest.fixture
def pot():
    """Experimental potential: K=1, alpha=0.3, phi=0."""
    return RatchetPotential(K=1.0, alpha=0.3, phi=0.0)


@pytest.fixture
def hbar_res():
    return EffectivePlanck(0.5 * math.pi)


@pytest.fixture
def hbar_offres():
    return EffectivePlanck(0.35 * math.pi)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of np.fft.fft and np.fft.ifft calls made while the test runs."""
    import numpy as np

    calls = Counter()
    for name in ("fft", "ifft"):
        def counted(a, *args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
