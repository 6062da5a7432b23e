"""Device-side interconnect substrate: links, topologies, rings."""
