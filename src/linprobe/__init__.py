"""Linear probing under k-independent hashing, signature filters, and the
moment-bound machinery that explains why they are fast."""

from . import experiments, filters, hashing, moments, probing
from .hashing import *
from .probing import *
from .filters import *
from .moments import *
from .experiments import *

__all__ = [*hashing.__all__, *probing.__all__, *filters.__all__, *moments.__all__,
           *experiments.__all__]
__version__ = "0.1.0"
