"""Two-level logic: cubes, next-state functions, exact and heuristic minimization."""
