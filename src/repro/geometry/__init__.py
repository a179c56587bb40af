"""Planar geometry substrate: points, rectangles, circles, grids, z-order."""

from .circle import Circle
from .grid import Cell, Grid
from .point import ORIGIN, Point
from .rect import Rect
from .zorder import cells_of_codes, codes_of_cells, deinterleave, interleave

__all__ = [
    "Cell",
    "Circle",
    "Grid",
    "ORIGIN",
    "Point",
    "Rect",
    "cells_of_codes",
    "codes_of_cells",
    "deinterleave",
    "interleave",
]
