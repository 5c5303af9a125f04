"""Petri net kernel, STGs, the .g format and composition."""
