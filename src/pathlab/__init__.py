"""pathlab: statistics, schedules and cutting cycles for decorated labeled
lattice paths, with exact signed enumerators in t and (q, t)."""

__version__ = "0.1.0"
