"""Multi-view plane-sweep geometry engine with probabilistic voxel feature
placement and splat-based depth refinement, verified on synthetic scenes."""
