"""Delta-kicked ratchet lab: quantum ladder engine, beam-bounce engine, drivers."""

from .model import (
    EffectivePlanck,
    MirrorProfile,
    RatchetPotential,
    ResonanceOrder,
    depth_from_phase,
    eval_potential,
    kick_phase_profile,
    phase_from_depth,
    quantize_profile,
    resonance_check,
)
from .evolution import (
    KickedRunParams,
    MomentumLadder,
    NumericalFailure,
    SpatialGrid,
    WaveState,
    evolve,
    plane_wave,
)

__version__ = "0.1.0"
