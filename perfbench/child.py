"""One benchmark sample in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py run   '<spec json>'   # one timed run of a workload
    python3 perfbench/child.py setup '<spec json>'   # import + lexicon set-up only

The spec names the workload, seed and output directory, and whether to trace.
The process does nothing but import tweetsent and run, so its ru_maxrss is
the run's peak RSS. Run from the checkout root with `src` on PYTHONPATH.
Times are wall seconds as measured (`wall_s`); run.py scales them to
reference host speed (see hostspeed.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _setup(spec: dict) -> dict:
    """Seconds to import tweetsent and load the workload's lexicons."""
    workload = workloads.WORKLOADS[spec["workload"]]
    abusive = workloads.abusive_path(workload, spec["seed"])
    t0 = time.perf_counter()
    import tweetsent

    tweetsent.textprep.load_stoplist()
    tweetsent.textprep.load_abusive_lexicon(None if abusive is None else str(abusive))
    tweetsent.emotion.load_emotion_lexicon()
    tweetsent.polarity.load_polarity_lexicon()
    return {"wall_s": time.perf_counter() - t0}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(spec: dict) -> dict:
    workload = workloads.WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    out = Path(spec["out"])
    source = str(workloads.input_path(workload, seed))
    abusive = workloads.abusive_path(workload, seed)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result: dict = {}
    if workload.cli:
        from tweetsent import cli

        argv = ["sentiment", "--input", source, "--output", str(out / "sentiment.csv")]
        if abusive is not None:
            argv += ["--abusive-lexicon", str(abusive)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            if tracer is None:
                t0 = time.perf_counter()
                code = cli.main(argv)
                run_s = time.perf_counter() - t0
            else:
                code, run_s = tracer.run_root("cli.main", cli.main, lambda: argv)
        result["exit"] = code
        with open(out / "sentiment.csv", encoding="utf-8") as fh:
            result["records_out"] = sum(1 for _ in fh) - 1
    else:
        from tweetsent.pipeline import RunConfig, run_pipeline

        dates = {}
        if workload.start_date:
            dates = {"start_date": workload.start_date, "end_date": workload.end_date}

        def make_cfg():
            return RunConfig(
                input=source,
                format=workload.format,
                abusive_lexicon_path=None if abusive is None else str(abusive),
                output_dir=str(out),
                **dates,
            )

        if tracer is None:
            cfg = make_cfg()
            t0 = time.perf_counter()
            manifest = run_pipeline(cfg)
            run_s = time.perf_counter() - t0
        else:
            # built inside the call so that only run_pipeline's frame holds it
            manifest, run_s = tracer.run_root("pipeline.run", run_pipeline, make_cfg)
        result["exit"] = 0
        result["provenance"] = manifest.stages["provenance"]
        result["records_final"] = manifest.stages["records_final"]

    result["wall_s"] = run_s
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    files = sorted(p for p in out.iterdir() if p.is_file())
    # manifest.json echoes paths and config, so it is left out of the digests
    result["digests"] = {p.name: _sha256(p) for p in files if p.name != "manifest.json"}
    result["output_bytes"] = sum(p.stat().st_size for p in files)
    if tracer is not None:
        result["layers"] = tracer.metrics("cli.main" if workload.cli else "pipeline.run", run_s)
        result["unmeasured"] = tracer.unmeasured
        if spec.get("spans"):
            Path(spec["spans"]).write_text(
                json.dumps({"columns": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}),
                "utf-8",
            )
    return result


def main() -> None:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = _setup(spec) if mode == "setup" else _run(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
