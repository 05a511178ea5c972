#pragma once

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "serve/frame.hpp"

namespace dist {

/// Knobs of the worker pool. `worker_exe` + `worker_args` name the command
/// each worker runs (genet_cli passes itself plus "dist-worker"); the
/// coordinator appends "--dist-fd <n>" with its end of a socketpair.
struct Options {
  int workers = 1;
  std::string worker_exe;
  std::vector<std::string> worker_args;
  std::int64_t timeout_ms = 120000;  ///< per-work-unit deadline
  std::int64_t threads_per_worker = 1;
  int max_attempts = 3;  ///< dispatches of one unit before giving up
  /// Cap on the serialized span batch a worker may piggyback on one result
  /// frame (--trace-ship-max-bytes / GENET_TRACE_SHIP_MAX_BYTES); a worker
  /// drops its oldest spans (counted) rather than exceed it. Only consulted
  /// while tracing is enabled on the coordinator.
  std::int64_t trace_ship_max_bytes = 1 << 20;
  /// Test hook (GENET_DIST_KILL_AFTER_SEND): SIGKILL worker 0 immediately
  /// after its Nth dispatched work unit, guaranteeing a unit is in flight
  /// when the worker dies so the reassignment path is exercised
  /// deterministically. -1 disables.
  int kill_worker0_after_sends = -1;
};

/// Coordinator of the distributed curriculum trainer (DESIGN.md S5i): owns a
/// pool of fork/exec'd worker processes, shards gap-evaluation items and
/// model-zoo trainings across them, and survives worker death.
///
/// Determinism contract: callers fork the per-item RNG streams serially
/// before handing work over (genet's dist_gap_eval), every unit's result is
/// a pure function of its request bytes, and results are stored by unit
/// index -- so worker count, scheduling, timing, and kill/reassign events
/// cannot change any output bit (in strict math mode, the same contract the
/// in-process thread pool gives).
///
/// Failure handling: socket EOF, poll errors, undecodable response frames
/// (serve::ProtocolError or checkpoint::CheckpointError), and per-unit
/// deadline expiry all mark the worker dead (SIGKILL + waitpid) and requeue
/// its in-flight unit at the front, bumping the dist.reassigned counter and
/// logging a "dist_reassign" record. A unit's deadline covers its queued
/// bytes as well as its compute: worker sockets are non-blocking, so a
/// stopped worker costs one deadline, never a blocked send. A unit that
/// fails `max_attempts` dispatches, a worker kError frame (request errors
/// fail everywhere), a protocol version mismatch, and losing the last worker
/// are fatal.
class Coordinator {
 public:
  explicit Coordinator(const Options& options);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  int alive_workers() const;
  std::vector<pid_t> worker_pids() const;  ///< pids of the alive workers
  std::int64_t reassignments() const { return reassigned_; }

  /// Shard one gap evaluation: dispatch one item per frame, the setup riding
  /// with each worker's first item; return per-item values in item order.
  std::vector<double> eval_items(const genet::GapEvalRequest& request);

  /// Train each spec on a worker; parameter snapshots in request order.
  std::vector<std::vector<double>> train_models(
      const std::vector<genet::TrainModelRequest>& requests);

  /// Route genet's gap evaluations (set_gap_eval_hook) and model-zoo batch
  /// trainings (set_train_model_hook) through this coordinator; the
  /// destructor uninstalls both.
  void install_hooks();

 private:
  struct WorkerProc {
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
    bool saw_hello = false;
    serve::FrameReader reader{serve::kMaxDistFrameBytes};
    std::string out;  ///< bytes the socket has not taken yet
    std::uint64_t setup_eval = 0;  ///< eval whose EvalSetup it was last sent
    std::int64_t unit = -1;  ///< in-flight unit index, -1 when idle
    std::int64_t deadline_ms = 0;  ///< steady-clock deadline of `unit`
    int sends = 0;           ///< work units dispatched to this worker
    std::int64_t items_done = 0;
  };

  void spawn_worker(std::size_t index);
  void exchange_hellos();
  void destroy_worker(WorkerProc& worker, const char* reason);
  /// Queue `bytes` behind the worker's unsent ones and send what the socket
  /// takes now; never blocks.
  void send_to(WorkerProc& worker, const std::string& bytes);
  void flush(WorkerProc& worker);
  void maybe_inject_kill(std::size_t index);

  using BodyHandler = std::function<void(std::size_t, const std::string&)>;
  /// The one poll/read path: wait up to `wait_ms` on the alive workers,
  /// flush queued bytes, read, and hand each complete frame body to
  /// `on_body` with the worker's index. A body that fails to decode --
  /// serve::ProtocolError or checkpoint::CheckpointError from the reader or
  /// from `on_body` -- destroys its worker; a kError body is fatal.
  void pump(std::int64_t wait_ms, const BodyHandler& on_body);

  /// The dispatch/poll/reassign engine shared by eval_items and
  /// train_models: run `n` units to completion over the alive workers.
  /// `setup_frame` (eval `eval_id`'s EvalSetup, or empty for trainings) is
  /// prepended to the first unit a worker gets of that eval. `encode_unit`
  /// appends unit i's frame; `on_result` parses one response body fully
  /// (throwing on any defect, before any caller state mutates) and returns
  /// the completed unit's index. `on_result`'s first argument is the
  /// responding worker's index, so shipped span batches land in the right
  /// trace lane.
  void run_units(std::size_t n, std::uint64_t eval_id,
                 const std::string& setup_frame,
                 const std::function<void(std::size_t, std::string&)>&
                     encode_unit,
                 const std::function<std::size_t(std::size_t,
                                                 const std::string&)>&
                     on_result);

  /// Merge a result frame's piggybacked span batch into the local tracing
  /// registry under the worker's pid lane. Spans arrive pre-parented (the
  /// worker stamps them from the dispatch's parent_span before shipping),
  /// so this only counts and registers them. Observational only.
  void register_remote_spans(std::size_t worker_index, SpanBatch batch);

  Options options_;
  std::vector<WorkerProc> workers_;
  std::int64_t reassigned_ = 0;
  std::uint64_t eval_seq_ = 0;
  std::uint64_t train_seq_ = 0;
  std::uint64_t trace_id_ = 0;  ///< run-wide trace correlation id
  bool kill_injected_ = false;
  bool hooks_installed_ = false;

  // run_units state shared with the death path.
  std::deque<std::size_t> pending_;
  std::vector<int> attempts_;
  std::size_t completed_ = 0;
};

}  // namespace dist
