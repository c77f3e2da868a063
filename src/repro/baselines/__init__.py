"""The baseline the paper compares against (Table 3)."""

from .gossipmap import gossipmap

__all__ = ["gossipmap"]
