"""Information-flow network analysis: bot detection, opinion-dynamics
equilibria, and harmonic influence centrality."""
