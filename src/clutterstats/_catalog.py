"""The facts the command-line parser states, in a module that imports
nothing: the cap on every moment and cumulant order (``specfun.MAX_ORDER``)
and the nine CLI family tags, in the order in which
``distributions.FAMILY_TAGS`` maps each to its spec class.  Building and
parsing the command line reads them here, so it loads no numerical code.
"""

__all__ = ["MAX_ORDER", "FAMILY_TAGS"]

MAX_ORDER = 8

FAMILY_TAGS = ("gamma", "nakagami", "maxwell", "weibull", "rayleigh",
               "ggamma", "k", "wnak", "fisher")
