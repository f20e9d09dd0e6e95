"""Exact cubical homology of digital images.

Two independent pipelines over the same image: the finite c1-cubical chain
complex of elementary cubes, and the normalized singular cubical complex of
continuous maps from digital unit cubes.  The orientation map beta connects
them degreewise, and the homology of both sides is computed in exact integer
arithmetic (certified Smith normal form on small matrices, streaming column
reduction on large ones).
"""

from .errors import *
from .image import *
from .chain import *
from .singular import *
from .elementary import *
from .bridge import *

__version__ = "0.1.0"
