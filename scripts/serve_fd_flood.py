#!/usr/bin/env python3
"""Connect flood against a running genet_serve (DESIGN.md S5g).

Opens --connections connections to the daemon, closes them all, then sends a
hello on a fresh connection and requires the hello_ok answer within
--timeout seconds. Run against a daemon started under a low fd limit
(`ulimit -n 24`), it checks that accept() running out of descriptors is
counted and waited out, never the end of accepting.

Usage:
    python3 scripts/serve_fd_flood.py --port-file PATH
                                      [--connections N] [--timeout S]

--port-file is the daemon's --port-file, waited for up to 10 s. Exit status
0 on success; 1 with a diagnostic otherwise. Pure stdlib.
"""

import argparse
import socket
import struct
import sys
import time

HELLO, HELLO_OK, PROTOCOL = 0x01, 0x81, 1


def read_port(path):
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            with open(path) as f:
                text = f.readline().strip()
            if text:
                return int(text)
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    sys.exit(f"serve_fd_flood: no port in {path}")


def recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port-file", required=True)
    ap.add_argument("--connections", type=int, default=40)
    ap.add_argument("--timeout", type=float, default=2.0)
    args = ap.parse_args()
    port = read_port(args.port_file)

    flood = [socket.create_connection(("127.0.0.1", port), timeout=5.0)
             for _ in range(args.connections)]
    for sock in flood:
        sock.close()

    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=args.timeout) as sock:
            sock.sendall(struct.pack("<IBB", 2, HELLO, PROTOCOL))
            (length,) = struct.unpack("<I", recv_exact(sock, 4))
            body = recv_exact(sock, length)
    except (OSError, ConnectionError) as e:
        print(f"serve_fd_flood: hello after {args.connections} connections "
              f"failed: {e}", file=sys.stderr)
        return 1
    if not body or body[0] != HELLO_OK:
        print(f"serve_fd_flood: expected hello_ok, got {body[:1].hex()}",
              file=sys.stderr)
        return 1
    print(f"hello answered after {args.connections} connections")
    return 0


if __name__ == "__main__":
    sys.exit(main())
