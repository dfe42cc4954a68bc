"""A picklable builder for the layout-memo tests, importable without side
effects so that spawned pool workers can unpickle it."""

from dataclasses import dataclass

from repro.predictors.registry import make_predictor
from repro.sim import kernels


@dataclass(frozen=True)
class MemoProbe:
    """Builds ``make_predictor(name)``, but only inside the layout memo."""

    name: str

    def __call__(self, training):
        if not kernels._LAYOUT_MEMO.depth:
            raise RuntimeError("cell built outside the layout memo")
        return make_predictor(self.name, training)
