"""One benchmark round in a fresh interpreter: import projheight, run commands.

Usage: python -I child.py SRC_DIR TRACE. The parent spawns this, waits for the
"ready" message (the end of set-up), then sends one JSON request per line:
{"argv": [...]} runs projheight.cli.main(argv) with stdout and stderr captured,
and {"end": true} asks for peak memory and, when TRACE is 1, the recorded
spans, after which the process exits.

Every reply is a JSON header line with a "size" key, followed by that many
bytes of payload.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path


def send(channel, header: dict, payload: bytes = b"") -> None:
    header["size"] = len(payload)
    channel.write(json.dumps(header).encode() + b"\n" + payload)
    channel.flush()


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    trace = sys.argv[2] == "1"
    channel, requests = sys.stdout.buffer, sys.stdin.buffer
    sys.path.insert(0, str(src))
    import projheight.cli

    if not Path(projheight.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"projheight imported from {projheight.cli.__file__}, not {src}")
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    send(channel, {"ready": True})

    for index, line in enumerate(requests):
        request = json.loads(line)
        if request.get("end"):
            payload = json.dumps(tracer.finish()).encode() if tracer else b""
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send(channel, {"maxrss_kb": maxrss_kb}, payload)
            return 0
        if tracer:
            tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = projheight.cli.main(request["argv"])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this command, as it would a CLI process
                traceback.print_exc()
                code = 1
        out_bytes, err_bytes = out.getvalue().encode(), err.getvalue().encode()
        send(channel, {"code": code, "out": len(out_bytes)}, out_bytes + err_bytes)
    return 1


if __name__ == "__main__":
    sys.exit(main())
