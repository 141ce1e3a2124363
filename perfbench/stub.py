"""Local scoring service for the ``service-ours`` workload.

Serves the README's teacher protocol (``POST /teacher/query``) in
embeddings mode by replaying a score fixture, one thread, one connection
at a time.  ``GET /count`` returns how many queries it has answered, so
the benchmark can check that number against the trainer's own counter.

Each response goes out in one write with ``TCP_NODELAY`` set: headers
and body in separate small writes meet the client's delayed ACK and add
about 40 ms to every query, which would measure this stub instead of
the trainer.

Usage: ``python3 stub.py SRC_DIR FIXTURE``; prints the bound port on
its first output line and serves until terminated.
"""

from __future__ import annotations

import base64
import json
import socket
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + data)

    def do_GET(self):
        if self.path != "/count":
            self._reply(404, {"error": "unknown path"})
            return
        self._reply(200, {"served": self.server.served})

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path != "/teacher/query":
            self._reply(404, {"error": "unknown path"})
            return
        tensor = self.server.records.get(body["sample_id"])
        if tensor is None or tensor.shape[0] != len(body["candidate_labels"]):
            self._reply(422, {"error": "no scores for this sample and candidate list"})
            return
        self.server.served += 1
        self._reply(200, {
            "request_id": body["request_id"],
            "dims": list(tensor.shape),
            "payload": base64.b64encode(tensor.astype("<f4").tobytes()).decode("ascii"),
        })

    def log_message(self, *args):
        pass


def main() -> None:
    src, fixture = sys.argv[1:3]
    sys.path.insert(0, src)
    from mtcl.bridge import read_fixture

    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.records = read_fixture(fixture)
    server.served = 0
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
