"""Command-line entry point.

One binary, one subcommand per role: `master` and `broker` run servers
until interrupted, `sub` streams payloads to stdout, `pub` sends one
message, `discover` prints the current fleet census, `eval` emits
delay-model CSV.  Data goes to stdout, logs to stderr, and exit codes
are fixed: 0 ok, 1 runtime failure, 2 bad configuration or usage,
3 unknown topic.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from .broker import EdgeBroker
from .client import SubscriberSession, publish, transparent_publish
from .config import Config, load_config
from .errors import ConfigError, NoSuchTopic, TdmqttError
from .evalmodel import (
    ALL_KINDS,
    UnstableQueue,
    breakdown,
    scenario_broker_mobility,
    scenario_emma_comparison,
)
from .master import MasterBroker, census_sweep
from .packets import BrokerRef, MalformedFilter, validate_topic

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NO_TOPIC = 3


def _ref(value: str) -> BrokerRef:
    try:
        return BrokerRef.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdmqtt",
        description="Topic-directory MQTT: master, edge broker, "
                    "transparent clients, and the delay model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_, func):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (or $TDMQTT_CONFIG)")
        p.set_defaults(func=func)
        return p

    p = cmd("master", "run the topic directory", cmd_master)
    p.add_argument("--listen", type=_ref, metavar="HOST:PORT")

    p = cmd("broker", "run an edge broker", cmd_broker)
    p.add_argument("--listen", type=_ref, metavar="HOST:PORT")

    p = cmd("sub", "subscribe via the master, print payloads", cmd_sub)
    p.add_argument("--master", type=_ref, metavar="HOST:PORT")
    p.add_argument("--topic", required=True, metavar="FILTER")

    p = cmd("pub", "publish one message", cmd_pub)
    p.add_argument("--master", type=_ref, metavar="HOST:PORT")
    p.add_argument("--broker", type=_ref, metavar="HOST:PORT",
                   help="send directly, skipping the master")
    p.add_argument("--topic", required=True, metavar="NAME")
    p.add_argument("--qos", type=int, choices=(0, 1), default=0)
    p.add_argument("payload")

    cmd("discover", "census the fleet and print each broker's topics",
        cmd_discover)

    p = cmd("eval", "print delay-model CSV", cmd_eval)
    p.add_argument("--scenario", required=True,
                   choices=("fig5", "fig6", "breakdown"))
    p.add_argument("--seed", type=_seed, metavar="N")

    return parser


def _serve_forever(server) -> int:
    """Run a server until ^C.

    The wait is a short-tick sleep rather than one long one: the kernel
    may hand SIGINT to any thread, and a signal that lands on a worker
    only takes effect once the main thread returns to the interpreter.
    """
    try:
        server.start()
        while True:
            time.sleep(0.25)
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        server.stop()


def cmd_master(args, config: Config) -> int:
    listen = args.listen or config.master.listen
    return _serve_forever(MasterBroker(config.master, listen.host, listen.port))


def cmd_broker(args, config: Config) -> int:
    listen = args.listen or config.broker.listen
    return _serve_forever(EdgeBroker(listen.host, listen.port,
                                     admin_port=config.broker.admin_port))


def cmd_sub(args, config: Config) -> int:
    master = args.master or config.client.master

    def on_message(packet):
        sys.stdout.write(packet.payload.decode("utf-8", errors="replace"))
        sys.stdout.write("\n")
        sys.stdout.flush()

    # the session's pump writes stdout; its run must end (close waits
    # for it) before the process exits, or shutdown can trip over its
    # buffer lock.  Owning the session before any thread starts is what
    # makes the finally airtight against a ^C landing mid-setup.
    session = SubscriberSession(master, args.topic, on_message,
                                keepalive=config.client.keepalive_s,
                                timeout=config.client.timeout_s)
    try:
        session.open()
        while not session.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        session.close()
    if isinstance(session.error, NoSuchTopic):
        raise session.error
    if session.error is not None:
        raise TdmqttError(str(session.error))
    return EXIT_OK


def cmd_pub(args, config: Config) -> int:
    validate_topic(args.topic)
    payload = args.payload.encode("utf-8")
    if args.broker is not None:
        publish(args.broker, args.topic, payload, qos=args.qos,
                timeout=config.client.timeout_s)
        logger.info("published to %s", args.broker)
    else:
        master = args.master or config.client.master
        ref = transparent_publish(master, args.topic, payload, qos=args.qos,
                                  timeout=config.client.timeout_s)
        logger.info("published to %s (via %s)", ref, master)
    return EXIT_OK


def cmd_discover(args, config: Config) -> int:
    for ref, topics in census_sweep(config.master).items():
        sys.stdout.write(f"{ref}\t{','.join(sorted(topics))}\n")
    return EXIT_OK


def cmd_eval(args, config: Config) -> int:
    ev = config.eval
    if args.scenario == "breakdown":
        b = breakdown(ev.params)
        names = [f"{kind}_ms" for kind in ALL_KINDS]
        values = [b.message_delays[kind] for kind in ALL_KINDS]
        names += ["t_mr_ms", "t_td_ms", "t_bd_ms", "t_tts_ms",
                  "t_change_ms", "t_broker_change_ms"]
        values += [b.t_mr, b.t_td, b.t_bd, b.t_tts,
                   b.t_change, b.t_broker_change]
        sys.stdout.write(",".join(names) + "\n")
        sys.stdout.write(",".join(f"{v * 1000:.6f}" for v in values) + "\n")
    elif args.scenario == "fig5":
        seed = args.seed if args.seed is not None else ev.seed
        trace = scenario_broker_mobility(ev.params, ev.steps,
                                         ev.mobility_model, seed)
        sys.stdout.write(trace.to_csv())
    else:
        trace = scenario_emma_comparison(ev.params, ev.steps, ev.emma)
        sys.stdout.write(trace.to_csv())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (ConfigError, MalformedFilter, UnstableQueue) as exc:
        print(f"tdmqtt: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoSuchTopic as exc:
        print(f"tdmqtt: {exc}", file=sys.stderr)
        return EXIT_NO_TOPIC
    except KeyboardInterrupt:
        return EXIT_OK
    except (TdmqttError, OSError) as exc:
        print(f"tdmqtt: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())
