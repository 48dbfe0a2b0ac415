"""Full time-series classification algorithms (WEASEL, MiniROCKET and
MLSTM-FCN)."""

from .minirocket import MiniROCKET
from .mlstm_fcn import MLSTMFCN
from .weasel import WEASEL

__all__ = ["WEASEL", "MiniROCKET", "MLSTMFCN"]
