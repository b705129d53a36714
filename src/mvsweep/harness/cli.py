"""Command-line interface.

Subcommands: scene-gen, run, refine, render, eval.  Global flags --config,
--out, --threads and --seed apply across subcommands; --threads is accepted
for interface compatibility and changes nothing.  Results never depend on
threads: refinement renders the novel views of one evaluation on threads of
their own and sums their losses and gradients in view order, so every byte
is what one thread running every view in turn gives.
"""

from __future__ import annotations

import argparse
import os
import sys

from mvsweep.harness import formats
from mvsweep.harness.config import PipelineConfig, load_config, save_config
from mvsweep.harness.pipeline import evaluate_outputs, run_pipeline, write_scene
from mvsweep.scenegen import generate_scene, make_trajectory
from mvsweep.splat import rasterize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvsweep",
        description="Plane-sweep multi-view depth, probabilistic voxel features, "
        "and splat-based refinement on synthetic scenes.",
    )
    parser.add_argument("--config", help="pipeline config file (key=value lines)")
    parser.add_argument("--out", help="output directory (or file for eval/render)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker hint; outputs are identical for any value")
    parser.add_argument("--seed", type=int, default=0, help="seed for scene generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene-gen", help="generate a synthetic scene directory")
    p.add_argument("--boxes", type=int, default=2, help="number of boxes")
    p.add_argument("--views", type=int, default=10, help="number of cameras")

    p = sub.add_parser("run", help="run the detection-path pipeline on a scene")
    p.add_argument("--scene", required=True, help="scene directory")

    p = sub.add_parser("refine", help="run the pipeline with splat refinement first")
    p.add_argument("--scene", required=True, help="scene directory")

    p = sub.add_parser("render", help="rasterize a serialized splat set into a camera")
    p.add_argument("--splats", required=True, help="MVSG splat file")
    p.add_argument("--cameras", required=True, help="camera listing")
    p.add_argument("--view", type=int, default=0, help="camera index to render")

    p = sub.add_parser("eval", help="score pipeline outputs against scene ground truth")
    p.add_argument("--scene", required=True, help="scene directory")
    p.add_argument("--results", required=True, help="pipeline output directory")
    return parser


def _require_out(args, what: str) -> str:
    if not args.out:
        raise SystemExit(f"--out is required for {what}")
    return args.out


def _load_or_default_config(args) -> PipelineConfig:
    if args.config:
        return load_config(args.config)
    return PipelineConfig()


def cmd_scene_gen(args) -> int:
    out = _require_out(args, "scene-gen")
    scene = generate_scene(seed=args.seed, n_boxes=args.boxes)
    views = make_trajectory(scene, args.views, seed=args.seed)
    write_scene(out, scene, views)
    save_config(os.path.join(out, "config_used.txt"), _load_or_default_config(args))
    print(f"wrote scene with {len(scene.boxes)} boxes and {len(views)} views to {out}")
    return 0


def _run(args, refine: bool) -> int:
    out = _require_out(args, "run/refine")
    config = _load_or_default_config(args)
    result = run_pipeline(args.scene, config, out_dir=out, refine=refine)
    for key, value in result.metrics.items():
        print(f"{key} {value}")
    print(f"artifacts written to {out}")
    return 0


def cmd_render(args) -> int:
    out = _require_out(args, "render")
    splats = formats.load_splats(args.splats)
    views = formats.load_cameras(args.cameras)
    if not 0 <= args.view < len(views):
        raise SystemExit(f"--view {args.view} out of range (have {len(views)} cameras)")
    target = rasterize(splats, views[args.view])
    os.makedirs(out, exist_ok=True)
    formats.save_ppm(os.path.join(out, f"render_{args.view:03d}.ppm"), target.color)
    formats.save_raster(os.path.join(out, f"render_depth_{args.view:03d}.mvsr"), target.depth)
    formats.save_raster(os.path.join(out, f"render_alpha_{args.view:03d}.mvsr"), target.alpha)
    print(f"rendered view {args.view} to {out}")
    return 0


def cmd_eval(args) -> int:
    config = _load_or_default_config(args)
    metrics = evaluate_outputs(args.scene, args.results, config)
    text = formats.metrics_to_text(metrics)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        formats.save_text(args.out, text)
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        raise SystemExit("--threads must be >= 1")
    if args.command == "scene-gen":
        return cmd_scene_gen(args)
    if args.command == "run":
        return _run(args, refine=False)
    if args.command == "refine":
        return _run(args, refine=True)
    if args.command == "render":
        return cmd_render(args)
    if args.command == "eval":
        return cmd_eval(args)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
