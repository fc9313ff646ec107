"""Parameter space and trial records for the autotuner.

A :class:`ParamSpace` is the cartesian product of per-dimension tile-size
candidate lists and a list of unroll factors.  Points that do not divide
the loop extents are still legal sample points: the tiling pass skips them
and the trial simply scores the baseline cost.
"""
from dataclasses import dataclass, field

from staircase.errors import EmptySpace

__all__ = ["ParamSpace", "Trial"]


@dataclass(frozen=True)
class ParamSpace:
    """Candidate tile sizes per parallel dimension plus unroll factors.

    ``tile_sizes`` is one candidate list per tiled dimension, outermost
    first.  Every candidate must be a positive integer and every list must
    be non-empty; an unusable space raises :class:`EmptySpace` on
    construction rather than mid-search.
    """

    tile_sizes: tuple
    unroll_factors: tuple

    def __post_init__(self):
        tiles = tuple(tuple(dim) for dim in self.tile_sizes)
        unroll = tuple(self.unroll_factors)
        object.__setattr__(self, "tile_sizes", tiles)
        object.__setattr__(self, "unroll_factors", unroll)
        if not tiles:
            raise EmptySpace("no tile-size dimensions given")
        if not unroll:
            raise EmptySpace("no unroll factors given")
        for axis, dim in enumerate(tiles):
            if not dim:
                raise EmptySpace(f"tile dimension {axis} has no candidates")
            for size in dim:
                if not isinstance(size, int) or isinstance(size, bool) or size < 1:
                    raise EmptySpace(
                        f"tile dimension {axis} has bad candidate {size!r}"
                    )
        for factor in unroll:
            if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
                raise EmptySpace(f"bad unroll factor {factor!r}")

    @property
    def rank(self) -> int:
        return len(self.tile_sizes)

    def identity(self) -> dict:
        """The do-nothing point: unit tiles, unroll factor 1."""
        return {"tiles": [1] * self.rank, "unroll": 1}


@dataclass
class Trial:
    """One tuning step: a parameter point and what evaluating it produced.

    ``cost`` is present exactly when ``status`` is ``"evaluated"``; a trial
    whose pipeline instantiation or verification failed is recorded as
    ``"skipped"`` with no cost.  ``stats`` is an informational digest of the
    interpreter counters and is excluded from equality so that a log
    survives a round trip through its serialized form.
    """

    idx: int
    params: dict
    cost: float | None
    status: str
    seed: int
    stats: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.status not in ("evaluated", "skipped"):
            raise ValueError(f"bad trial status {self.status!r}")
        if (self.cost is None) == (self.status == "evaluated"):
            raise ValueError("cost must be present exactly for evaluated trials")
