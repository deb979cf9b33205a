//===- perfbench/perfbench.cpp - End-to-end and per-layer benchmark -------===//
///
/// \file
/// One closed-loop benchmark over the three user-facing paths of
/// AlgoProf (see perfbench/README.md for the workloads and metrics):
///
///   isort_serial     compile + ProfileDriver(Jobs=1) + buildProfiles +
///                    JSON report of the paper's running example, one
///                    thread per session;
///   corpus_parallel  one fresh CorpusRunner::run over the 31-program
///                    built-in corpus at Jobs = nproc, plus its profiles;
///   daemon_closed    an in-process service::Daemon (journal on) driven
///                    by service::Client sessions.
///
/// Each workload is one closed-loop client: the next session starts
/// when the last one returned.
///
/// Every layer is measured from outside: the benchmark times its own
/// calls into each module's public functions (spans, traced runs only)
/// and reads the counters and phases obs::snapshot() exports. Nothing
/// inside src/ is instrumented for the benchmark.
///
/// Usage:
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--workdir DIR] [--result FILE] [--trace-out FILE]
///             [--digests FILE [--update-digests]] [--id-only FILE]
///             [--source-id ID]
///
/// Exit status: 0 when every session succeeded and every check passed,
/// 1 when a session failed or a check did not hold, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Compiler.h"
#include "bytecode/Verifier.h"
#include "core/Session.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "obs/Obs.h"
#include "parallel/CorpusRunner.h"
#include "programs/Programs.h"
#include "programs/Table1Check.h"
#include "report/Reporter.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Protocol.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace algoprof;

namespace {

//===----------------------------------------------------------------------===//
// Clock, seeded inputs, digests
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double secondsSince(uint64_t StartNs) { return (nowNs() - StartNs) * 1e-9; }

/// CPU time of the whole process (every thread, the in-process daemon's
/// too). The scheduler keeps time a hypervisor steals from a vCPU out
/// of it, and time a thread waits for a CPU, a lock or the disk.
uint64_t cpuNs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

/// splitmix64: the only source of benchmark randomness.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  int64_t between(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() %
                                     static_cast<uint64_t>(Hi - Lo + 1));
  }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }
};

/// One size drawn from each of \p N equal-width strata of [Lo, Hi], in
/// a seed-drawn order. Stratifying keeps a session's total work nearly
/// seed-independent (a plain uniform draw of 20 insertion-sort sizes
/// moves the n^2 sum by ~20% between seeds), while every seed still
/// profiles different sizes in a different run order.
std::vector<int64_t> stratifiedGrid(Rng &R, int N, int64_t Lo, int64_t Hi) {
  std::vector<int64_t> G;
  double W = static_cast<double>(Hi - Lo + 1) / N;
  for (int I = 0; I < N; ++I) {
    int64_t A = Lo + static_cast<int64_t>(std::floor(I * W));
    int64_t B = Lo + static_cast<int64_t>(std::floor((I + 1) * W)) - 1;
    G.push_back(R.between(A, std::max(A, B)));
  }
  R.shuffle(G);
  return G;
}

/// A corpus program's sizes: as many as the CLI's default `--corpus`
/// run plan (the six sizes 4, 8, ..., 24; runCorpus in
/// tools/algoprof_main.cpp), from its lowest size up to 120, one per
/// stratum. Up to 24 the insertion sort's series fits n log n, not
/// n^2, on some seeds, so the paper-level check could not hold; 120
/// is the smallest upper bound tried at which it held on every seed
/// (perfbench/README.md, "Inputs").
std::vector<int64_t> corpusGrid(Rng &R) {
  return stratifiedGrid(R, 6, 4, 120);
}

/// FNV-1a 64 over \p S, chained through \p H.
uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// \p Json with every "input_id" value renumbered densely in numeric
/// order. docs/parallel_sweeps.md (Caveats, "Input-id numbering")
/// documents that a sweep may number inputs differently from a serial
/// session while every observable agrees; this is that equivalence.
std::string canonicalInputIds(const std::string &Json) {
  static const std::string Key = "\"input_id\": ";
  std::vector<std::pair<size_t, size_t>> Spans; // digits [begin, end)
  std::set<long long> Ids;
  for (size_t At = Json.find(Key); At != std::string::npos;
       At = Json.find(Key, At + 1)) {
    size_t B = At + Key.size(), E = B;
    while (E < Json.size() && std::isdigit(static_cast<unsigned char>(Json[E])))
      ++E;
    if (E == B)
      continue;
    Spans.push_back({B, E});
    Ids.insert(std::stoll(Json.substr(B, E - B)));
  }
  std::map<long long, size_t> Rank;
  for (long long Id : Ids)
    Rank.emplace(Id, Rank.size());
  std::string Out;
  size_t Prev = 0;
  for (auto [B, E] : Spans) {
    Out.append(Json, Prev, B - Prev);
    Out += std::to_string(Rank[std::stoll(Json.substr(B, E - B))]);
    Prev = E;
  }
  Out.append(Json, Prev, std::string::npos);
  return Out;
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Pins the calling thread to each CPU it may run on in turn. Single
/// vCPUs of a shared host run at different speeds for seconds at a
/// time; work spread over all of them in turn moves less from run to
/// run than work left on whichever CPU the scheduler picked.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Allowed);
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Allowed))
          Cpus.push_back(C);
  }
  /// Pins the calling thread to the \p I-th allowed CPU, modulo.
  void pin(size_t I) const {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[I % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }
  /// How many CPUs pin() goes round.
  size_t size() const { return std::max<size_t>(1, Cpus.size()); }
  /// Lets the calling thread run on every allowed CPU again.
  void unpin() const {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Allowed), &Allowed);
  }

private:
  cpu_set_t Allowed;
  std::vector<int> Cpus;
};

const CpuRotation Rotation;

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Median with interpolation between the two middle samples.
double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile; \p Beyond receives the samples above it.
double percentile(std::vector<double> V, double P, size_t &Beyond) {
  Beyond = 0;
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  Beyond = V.size() - Rank;
  return V[Rank - 1];
}

//===----------------------------------------------------------------------===//
// Spans (traced runs only)
//===----------------------------------------------------------------------===//

/// One timed call into a layer. Name is "layer.call"; spans of one
/// session share Session, and Parent links to the enclosing span.
struct SpanRec {
  const char *Name;
  uint64_t StartNs, EndNs;
  uint64_t Id, Parent, Session;
  int Tid;
};

/// In-memory span store, written out as Chrome trace JSON at the end.
class Tracer {
public:
  static constexpr size_t MaxSpans = size_t(1) << 21;
  std::atomic<bool> On{false};
  std::atomic<uint64_t> NextId{1};
  std::atomic<uint64_t> NextSession{1};

  void record(const SpanRec &S) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Spans.size() >= MaxSpans)
      ++Dropped;
    else
      Spans.push_back(S);
  }
  std::vector<SpanRec> take() {
    std::lock_guard<std::mutex> Lock(Mu);
    return std::move(Spans);
  }
  uint64_t dropped() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Dropped;
  }

private:
  std::mutex Mu;
  std::vector<SpanRec> Spans;
  uint64_t Dropped = 0;
};

Tracer Trace;

/// The calling thread's open spans and current session.
struct SpanContext {
  uint64_t Session = 0;
  std::vector<uint64_t> Open;
  int Tid = 0;
};
thread_local SpanContext Ctx;

/// Times the enclosing scope as a span when tracing is on; a no-op
/// otherwise, so traced and untraced sessions run the same code.
class Span {
public:
  explicit Span(const char *Name, bool SessionRoot = false) : Name(Name) {
    if (!Trace.On.load(std::memory_order_relaxed))
      return;
    Active = true;
    if (SessionRoot)
      Ctx.Session = Trace.NextSession.fetch_add(1);
    Id = Trace.NextId.fetch_add(1);
    Parent = Ctx.Open.empty() ? 0 : Ctx.Open.back();
    Ctx.Open.push_back(Id);
    Start = nowNs();
  }
  ~Span() {
    if (!Active)
      return;
    uint64_t End = nowNs();
    Ctx.Open.pop_back();
    Trace.record({Name, Start, End, Id, Parent, Ctx.Session, Ctx.Tid});
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  bool Active = false;
  uint64_t Id = 0, Parent = 0, Start = 0;
};

/// Records an interval timed by hand (delta arrivals on the daemon's
/// stream) as a child of the innermost open span.
void markSpan(const char *Name, uint64_t Start, uint64_t End) {
  if (!Trace.On.load(std::memory_order_relaxed))
    return;
  uint64_t Parent = Ctx.Open.empty() ? 0 : Ctx.Open.back();
  Trace.record({Name, Start, End, Trace.NextId.fetch_add(1), Parent,
                Ctx.Session, Ctx.Tid});
}

std::string layerOf(const char *Name) {
  const char *Dot = std::strchr(Name, '.');
  return Dot ? std::string(Name, Dot) : std::string(Name);
}

/// Self time per layer: each span's duration minus the part of it its
/// children cover. A session root's own self time is the "unattributed"
/// row, so the rows add up to the session wall time.
struct SelfTimes {
  std::map<std::string, double> ByLayer; ///< Seconds, all sessions.
  std::map<std::string, double> ByName;  ///< Span durations, all sessions.
  double SessionWall = 0;
  uint64_t Sessions = 0;
  double WorstMismatchS = 0; ///< max |sum(self) - wall| over sessions.
};

SelfTimes selfTimes(const std::vector<SpanRec> &Spans) {
  SelfTimes T;
  std::unordered_map<uint64_t, std::vector<const SpanRec *>> Kids;
  for (const SpanRec &S : Spans)
    if (S.Parent)
      Kids[S.Parent].push_back(&S);
  std::unordered_map<uint64_t, double> SelfSum, Wall;
  for (const SpanRec &S : Spans) {
    std::vector<std::pair<uint64_t, uint64_t>> Iv;
    for (const SpanRec *K : Kids[S.Id])
      Iv.push_back({std::max(K->StartNs, S.StartNs),
                    std::min(K->EndNs, S.EndNs)});
    std::sort(Iv.begin(), Iv.end());
    uint64_t Covered = 0, Reach = S.StartNs;
    for (auto [A, B] : Iv) {
      A = std::max(A, Reach);
      if (B > A) {
        Covered += B - A;
        Reach = B;
      }
    }
    double Dur = (S.EndNs - S.StartNs) * 1e-9;
    double Self = Dur - Covered * 1e-9;
    bool Root = S.Parent == 0;
    T.ByLayer[Root ? "unattributed" : layerOf(S.Name)] += Self;
    if (!Root)
      T.ByName[S.Name] += Dur;
    SelfSum[S.Session] += Self;
    if (Root) {
      Wall[S.Session] = Dur;
      T.SessionWall += Dur;
      ++T.Sessions;
    }
  }
  for (const auto &[Session, W] : Wall)
    T.WorstMismatchS =
        std::max(T.WorstMismatchS, std::fabs(SelfSum[Session] - W));
  return T;
}

std::string chromeTrace(const std::vector<SpanRec> &Spans) {
  uint64_t T0 = ~uint64_t(0);
  std::set<int> Tids;
  for (const SpanRec &S : Spans) {
    T0 = std::min(T0, S.StartNs);
    Tids.insert(S.Tid);
  }
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      Out += ",\n";
    First = false;
  };
  char Buf[512];
  for (int Tid : Tids) {
    Sep();
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"client %d\"}}",
                  Tid, Tid);
    Out += Buf;
  }
  for (const SpanRec &S : Spans) {
    Sep();
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"session\":%llu,\"span\":%llu,\"parent\":%llu}}",
                  S.Name, layerOf(S.Name).c_str(), S.Tid,
                  (S.StartNs - T0) / 1e3, (S.EndNs - S.StartNs) / 1e3,
                  static_cast<unsigned long long>(S.Session),
                  static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent));
    Out += Buf;
  }
  Out += "\n]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// obs readings
//===----------------------------------------------------------------------===//

uint64_t count(const obs::Snapshot &S, obs::Counter C) {
  return S.Counters[static_cast<size_t>(C)];
}
double phaseS(const obs::Snapshot &S, obs::Phase P) {
  return S.PhaseNs[static_cast<size_t>(P)] * 1e-9;
}

/// The counters that must repeat exactly for identical inputs.
const std::array<std::pair<const char *, obs::Counter>, 6> ExactCounters = {{
    {"vm.bytecodes", obs::Counter::BytecodesExecuted},
    {"core.listener_events", obs::Counter::ListenerEvents},
    {"core.traversal_steps", obs::Counter::TraversalSteps},
    {"core.tree_nodes", obs::Counter::TreeNodes},
    {"core.heap_objects", obs::Counter::HeapObjects},
    {"fitting.fit_evaluations", obs::Counter::FitEvaluations},
}};
using ExactCounts = std::array<uint64_t, ExactCounters.size()>;

ExactCounts exactCounts(const obs::Snapshot &Delta) {
  ExactCounts C{};
  for (size_t I = 0; I < ExactCounters.size(); ++I)
    C[I] = count(Delta, ExactCounters[I].second);
  return C;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note; ///< Source, sample count, or exactness label.
};

struct Results {
  std::vector<Metric> EndToEnd, PerLayer;
  std::vector<std::string> Failures; ///< Failed checks, human-readable.
  /// Programs whose profile matches the serial session's only up to
  /// input-id numbering (the documented caveat); checked against the
  /// committed list of such programs.
  std::set<std::string> InputIdDeltas;
  uint64_t Attempted = 0, Failed = 0;
  std::map<std::string, std::string> Provenance;
  SelfTimes Self;

  void fail(std::string Why) { Failures.push_back(std::move(Why)); }
  void e2e(std::string N, double V, std::string U, std::string Note = "") {
    EndToEnd.push_back({std::move(N), V, std::move(U), std::move(Note)});
  }
  void layer(std::string N, double V, std::string U, std::string Note = "") {
    PerLayer.push_back({std::move(N), V, std::move(U), std::move(Note)});
  }
};

/// What one closed-loop segment measured.
struct LoopStats {
  std::vector<double> Latency;    ///< Seconds, one per session.
  std::vector<double> Cpu;        ///< Process CPU seconds, one per session.
  std::vector<double> Reference;  ///< referenceCpuS() samples.
  std::vector<double> CpuRef;     ///< Cpu in reference units (closedLoop).
  std::vector<double> FirstDelta; ///< daemon_closed only.
  double WallS = 0;
  uint64_t Attempted = 0, Failed = 0;
  obs::Snapshot Obs; ///< obs delta over the segment.
};

/// An untraced run needs 100 sessions so that p90 has 10 samples
/// beyond it; its segment keeps going past its time (up to 3x) until it
/// has them.
constexpr size_t MinSessions = 100;

/// Timed set-ups per run, half before the loop and half after it, on
/// each allowed CPU in turn; setup_s is their median.
constexpr int SetupReps = 64;

/// What one session reported to the loop. A negative latency marks a
/// failed session.
struct Outcome {
  double LatencyS = -1;
  double CpuS = -1;        ///< Process CPU time over the same interval.
  double FirstDeltaS = -1; ///< daemon_closed only.
};

/// Wall-clock and process CPU time of one session, from construction
/// to stop().
class SessionClock {
public:
  Outcome stop() const {
    Outcome O;
    O.CpuS = (cpuNs() - Cpu0) * 1e-9;
    O.LatencyS = secondsSince(Wall0);
    return O;
  }

private:
  uint64_t Wall0 = nowNs(), Cpu0 = cpuNs();
};

/// Fixed work that belongs to the benchmark, not to the program under
/// test: a toy bytecode loop over a small stack feeding a hash map,
/// then a hash map of small vectors. Its CPU time, taken between
/// sessions on the client's thread, is the unit of the *_ref metrics
/// (see closedLoop): a shared host's speed moves by tens of percent
/// from one minute to the next, the reference moves with it, and a
/// session's cost in reference units moves several times less than its
/// seconds do.
double referenceCpuS() {
  timespec A, B;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &A);
  static const uint8_t Code[] = {0, 1, 2, 0, 3, 1, 4, 2,
                                 0, 5, 3, 1, 2, 4, 5, 0};
  std::vector<int64_t> Stack(64, 1);
  std::unordered_map<uint64_t, uint64_t> Map;
  size_t Sp = 8;
  uint64_t Acc = 1;
  for (int I = 0; I < 30000; ++I)
    for (uint8_t Op : Code)
      switch (Op) {
      case 0:
        Stack[Sp & 63] = Stack[(Sp - 1) & 63] + I;
        ++Sp;
        break;
      case 1:
        Acc = Acc * 6364136223846793005ull + Stack[(--Sp) & 63];
        break;
      case 2:
        Stack[Sp & 63] ^= static_cast<int64_t>(Acc >> 17);
        break;
      case 3:
        Map[Acc & 4095] += Op;
        break;
      case 4:
        Acc ^= Acc >> 29;
        ++Sp;
        break;
      default:
        Sp = 8 + (Acc & 7);
        break;
      }
  std::unordered_map<uint64_t, std::vector<uint64_t>> Lists;
  Rng G(7);
  for (uint64_t I = 0; I < 10000; ++I)
    Lists[G.next() % 4096].push_back(I);
  for (int I = 0; I < 10000; ++I) {
    auto It = Lists.find(G.next() % 4096);
    Acc += It == Lists.end() ? 0 : It->second.size();
  }
  volatile uint64_t Sink = Acc + Map.size();
  (void)Sink;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &B);
  return static_cast<double>(B.tv_sec - A.tv_sec) +
         (B.tv_nsec - A.tv_nsec) * 1e-9;
}

/// Without CPU rotation, the reference work runs at most this often,
/// before a session.
constexpr uint64_t ReferenceEveryNs = 100000000;

/// Runs one closed-loop client on the calling thread for \p Seconds,
/// and on until \p Min sessions completed. Session(I) runs the I-th
/// session and measures it itself, so bookkeeping after the
/// user-visible work stays outside it. One client at a time keeps the
/// process's CPU time between a session's start and end that
/// session's own. With \p Rotate, the I-th session and the reference
/// work before it run on the I-th allowed CPU (see CpuRotation).
///
/// A session's cost in reference units is its CPU time over the median
/// reference time of the run: of the reference work run on the CPU the
/// session was pinned to, with \p Rotate. A single reference sample
/// scatters far more than the machine's speed moves within a run.
template <class F>
LoopStats closedLoop(double Seconds, size_t Min, bool Rotate, F Session) {
  LoopStats L;
  size_t Slots = Rotate ? Rotation.size() : 1;
  std::vector<std::vector<double>> RefBySlot(Slots);
  std::vector<size_t> SlotOf; ///< Per completed session.
  obs::Snapshot Before = obs::snapshot();
  uint64_t T0 = nowNs(), LastRef = 0, RefNs = 0;
  Ctx.Tid = 1;
  for (size_t I = 0;; ++I) {
    double Elapsed = (nowNs() - T0 - RefNs) * 1e-9;
    if ((Elapsed >= Seconds && L.Latency.size() >= Min) ||
        Elapsed >= 3 * Seconds)
      break;
    if (Rotate)
      Rotation.pin(I);
    if (Rotate || !LastRef || nowNs() - LastRef >= ReferenceEveryNs) {
      uint64_t R0 = nowNs();
      L.Reference.push_back(referenceCpuS());
      RefBySlot[I % Slots].push_back(L.Reference.back());
      LastRef = nowNs();
      RefNs += LastRef - R0;
    }
    Outcome O = Session(I);
    ++L.Attempted;
    if (O.LatencyS < 0) {
      ++L.Failed;
      continue;
    }
    L.Latency.push_back(O.LatencyS);
    L.Cpu.push_back(O.CpuS);
    SlotOf.push_back(I % Slots);
    if (O.FirstDeltaS >= 0)
      L.FirstDelta.push_back(O.FirstDeltaS);
  }
  if (Rotate)
    Rotation.unpin();
  L.WallS = (nowNs() - T0 - RefNs) * 1e-9; // Sessions' time only.
  std::vector<double> RefS(Slots);
  for (size_t K = 0; K < Slots; ++K)
    RefS[K] = std::max(median(RefBySlot[K]), 1e-9);
  for (size_t K = 0; K < L.Cpu.size(); ++K)
    L.CpuRef.push_back(L.Cpu[K] / RefS[SlotOf[K]]);
  L.Obs = obs::snapshot().deltaFrom(Before);
  return L;
}

std::string renderJson(const prof::RepetitionTree &Tree,
                       const prof::InputTable &Inputs,
                       const std::vector<prof::AlgorithmProfile> &Profiles,
                       const std::vector<resilience::FailureInfo> &Failures) {
  report::ReportInput RI{&Tree, &Inputs, &Profiles, &Failures};
  return report::Registry::builtin().find("json")->render(RI);
}

/// Compares a parallel or daemon profile (its digests with raw and
/// canonical input ids) with the serial session's document \p Ref.
void checkSerialIdentity(uint64_t Raw, uint64_t Canon, const std::string &Ref,
                         const std::string &Workload,
                         const std::string &Program, Results &Res) {
  if (Raw == fnv1a(Ref))
    return;
  if (Canon == fnv1a(canonicalInputIds(Ref)))
    Res.InputIdDeltas.insert(Program);
  else
    Res.fail(Workload + ": " + Program +
             " profile differs from the serial session");
}

/// Seconds per session spent in spans named \p Name (traced runs).
double spanPerSession(const Results &Res, const char *Name, double Sessions) {
  auto It = Res.Self.ByName.find(Name);
  return It == Res.Self.ByName.end() ? 0.0 : It->second / Sessions;
}

/// The paper's Figure 1 claim: the sort loop's primary series is n^2.
void checkQuadraticSort(const std::vector<prof::AlgorithmProfile> &Profiles,
                        const std::string &Where, Results &Res) {
  for (const prof::AlgorithmProfile &AP : Profiles) {
    if (AP.Algo.Root->Name != "List.sort loop#0")
      continue;
    const auto *PS = AP.primarySeries();
    double G = PS && PS->Fit.Valid ? PS->Fit.growthExponent() : -1;
    if (G < 1.8 || G > 2.2)
      Res.fail(Where + ": insertion sort series is not n^2 (" +
               (PS ? PS->Fit.formula() : std::string("no series")) + ")");
    return;
  }
  Res.fail(Where + ": no 'List.sort loop#0' algorithm in the profile");
}

/// The serial oracle: a Jobs=1 ProfileDriver (a ProfileSession) over
/// \p Seeds, rendered exactly as the CLI's --format json. Empty when a
/// run failed. Runs the Figure 1 check at \p CheckSortAt when non-null.
std::string serialReference(const prof::CompiledProgram &CP,
                            const std::vector<int64_t> &Seeds, Results &Res,
                            const char *CheckSortAt) {
  prof::SessionOptions SO;
  SO.Seeds = Seeds;
  prof::ProfileDriver D(CP, SO);
  bool Ok = true;
  for (const vm::RunResult &Run : D.runAll("Main", "main"))
    Ok = Ok && Run.ok();
  if (!Ok || !D.usable())
    return std::string();
  std::vector<prof::AlgorithmProfile> Profiles = D.buildProfiles();
  if (CheckSortAt)
    checkQuadraticSort(Profiles, CheckSortAt, Res);
  return renderJson(D.tree(), D.inputs(), Profiles, D.failures());
}

/// Solo (one thread, nothing else running) replays of sessions' runs,
/// after the timed loop: the profiled runs on one ProfileSession, each
/// run timed, and the same runs under runPlain. Summed over programs.
struct CoreReplay {
  double ProfiledS = 0, PlainS = 0;
  double SumRunS = 0, MaxRunS = 0; ///< Per profiled run (critical path).
  double Events = 0, PlainBytecodes = 0;

  /// Adds \p CP over \p Seeds; times are the median of three replays.
  void add(const prof::CompiledProgram &CP,
           const std::vector<int64_t> &Seeds) {
    std::vector<double> Profiled, Plain, RunS;
    for (int Rep = 0; Rep < 3; ++Rep) {
      prof::ProfileSession S(CP);
      obs::Snapshot Before = obs::snapshot();
      double Total = 0;
      for (int64_t Seed : Seeds) {
        vm::IoChannels Io;
        Io.Input.push_back(Seed);
        uint64_t T0 = nowNs();
        S.run("Main", "main", Io);
        double Run = secondsSince(T0);
        Total += Run;
        if (Rep == 0)
          RunS.push_back(Run);
      }
      Profiled.push_back(Total);
      if (Rep == 0)
        Events += count(obs::snapshot().deltaFrom(Before),
                        obs::Counter::ListenerEvents);
      Before = obs::snapshot();
      uint64_t T0 = nowNs();
      for (int64_t Seed : Seeds) {
        vm::IoChannels Io;
        Io.Input.push_back(Seed);
        prof::runPlain(CP, "Main", "main", &Io);
      }
      Plain.push_back(secondsSince(T0));
      if (Rep == 0)
        PlainBytecodes += count(obs::snapshot().deltaFrom(Before),
                                obs::Counter::BytecodesExecuted);
    }
    ProfiledS += median(Profiled);
    PlainS += median(Plain);
    for (double Run : RunS) {
      SumRunS += Run;
      MaxRunS = std::max(MaxRunS, Run);
    }
  }
};

std::unique_ptr<prof::CompiledProgram> compileOrDie(const std::string &Src,
                                                    Results &Res) {
  DiagnosticEngine Diags;
  auto CP = prof::compileMiniJ(Src, Diags);
  if (!CP)
    Res.fail("compile error: " + Diags.str());
  return CP;
}

/// Table 1's I, S and G columns for all 18 structure programs.
void checkTable1(Results &Res) {
  for (const programs::Table1Program &P : programs::table1Programs()) {
    programs::Table1Outcome Out = programs::evaluateTable1Program(
        P, prof::GroupingStrategy::CommonInput);
    char WantG = P.PaperG == '*' ? 'x' : P.PaperG;
    if (!Out.CompiledAndRan || !Out.InputsDetected || !Out.SizesCorrect ||
        Out.GColumn != WantG)
      Res.fail("table1 " + P.Name + ": I/S/G mismatch: " + Out.Detail);
  }
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

class Workload {
public:
  virtual ~Workload() = default;
  /// Draws this run's inputs from the seed (not timed).
  virtual void drawInputs(Rng &R) = 0;
  /// One set-up. \p Timed set-ups are only timed by the harness and
  /// torn down again; the untimed one is what the loop uses.
  virtual void setup(Results &Res, bool Timed) = 0;
  /// Releases what setup() built.
  virtual void teardown() {}
  /// One closed-loop segment of sessions (at least \p Min of them).
  virtual LoopStats loop(double Seconds, size_t Min, bool Traced,
                         Results &Res) = 0;
  /// Output checks (all sessions of every segment) and the traced
  /// run's per-layer metrics. \p TracedLoop is null for untraced runs.
  virtual void finish(const LoopStats *TracedLoop, Results &Res) = 0;
  /// Digest of every profile document this run produced, in input
  /// order (checked against the committed default-seed digests).
  virtual uint64_t digest() const = 0;
};

/// Checks that every session's exact counters repeat the first one's.
class CounterCheck {
public:
  void add(const ExactCounts &C, const char *Where, Results &Res) {
    if (!Have) {
      First = C;
      Have = true;
      return;
    }
    for (size_t I = 0; I < C.size(); ++I)
      if (C[I] != First[I] && Reported.insert(I).second)
        Res.fail(std::string(Where) + ": " + ExactCounters[I].first +
                 " differs between sessions with the same inputs (" +
                 std::to_string(First[I]) + " vs " + std::to_string(C[I]) +
                 ")");
  }
  const ExactCounts &first() const { return First; }

private:
  bool Have = false;
  ExactCounts First{};
  std::set<size_t> Reported;
};

/// Adds the exact counters (per session), and the listener cost and
/// plain-VM rate from \p Replay, scaled to one session by \p PerSession.
void addCoreLayer(Results &Res, const ExactCounts &Counts,
                  const CoreReplay &Replay, double PerSession) {
  double Profiled = Replay.ProfiledS * PerSession;
  double Plain = Replay.PlainS * PerSession;
  Res.layer("vm.plain_run_s", Plain, "s", "solo replay: runPlain");
  Res.layer("vm.bytecodes_per_s",
            Replay.PlainBytecodes / std::max(Replay.PlainS, 1e-12), "1/s",
            "solo replay: runPlain");
  Res.layer("core.profiled_run_s", Profiled, "s",
            "solo replay: ProfileSession runs");
  Res.layer("core.listener_overhead_x",
            Replay.ProfiledS / std::max(Replay.PlainS, 1e-12), "x",
            "profiled / plain");
  Res.layer("core.listener_ns_per_event",
            (Replay.ProfiledS - Replay.PlainS) * 1e9 /
                std::max(1.0, Replay.Events),
            "ns", "(profiled - plain) / events");
  for (size_t I = 0; I < ExactCounters.size(); ++I)
    Res.layer(ExactCounters[I].first, static_cast<double>(Counts[I]),
              "count", "exact, per session");
}

/// Per-session shares of the obs phases for one segment.
void addObsPhases(Results &Res, const obs::Snapshot &D, double Sessions,
                  bool Frontend) {
  auto Per = [&](obs::Phase P) { return phaseS(D, P) / Sessions; };
  if (Frontend) {
    Res.layer("frontend.parse_s", Per(obs::Phase::Parse), "s", "obs phase");
    Res.layer("frontend.sema_s", Per(obs::Phase::Sema), "s", "obs phase");
    Res.layer("bytecode.compile_s", Per(obs::Phase::Compile), "s",
              "obs phase");
    Res.layer("bytecode.verify_s", Per(obs::Phase::Verify), "s", "obs phase");
    Res.layer("analysis.dataflow_s", Per(obs::Phase::Dataflow), "s",
              "obs phase");
    Res.layer("vm.prepare_s", Per(obs::Phase::Prepare), "s", "obs phase");
  }
  Res.layer("core.snapshot_s", Per(obs::Phase::Snapshot), "s", "obs phase");
  Res.layer("core.grouping_s", Per(obs::Phase::Grouping), "s", "obs phase");
  Res.layer("core.classify_s", Per(obs::Phase::Classify), "s", "obs phase");
  Res.layer("fitting.fit_s", Per(obs::Phase::Fit), "s", "obs phase");
}

//--- isort_serial -----------------------------------------------------------

/// The paper's running example, each session end to end on one thread
/// (Jobs=1). The pool and the service stay out of the path.
class IsortSerial : public Workload {
public:
  void drawInputs(Rng &R) override {
    Seeds = stratifiedGrid(R, 20, 10, 250);
  }

  void setup(Results &Res, bool) override {
    Source = programs::seededInsertionSortProgram(programs::InputOrder::Random);
    SetupCP = compileOrDie(Source, Res);
  }

  LoopStats loop(double Seconds, size_t Min, bool, Results &Res) override {
    return closedLoop(Seconds, Min, /*Rotate=*/true,
                      [&](size_t) { return session(Res); });
  }

  Outcome session(Results &Res) {
    obs::Snapshot Before = obs::snapshot();
    SessionClock Clock;
    std::string Json;
    bool Ok = true;
    Outcome Out;
    {
      Span Root("session", true);
      DiagnosticEngine Diags;
      prof::CompiledProgram CP;
      {
        Span S("frontend.parse");
        CP.Ast = parseMiniJ(Source, Diags);
      }
      {
        Span S("frontend.sema");
        Ok = !Diags.hasErrors() && runSema(*CP.Ast, Diags);
      }
      if (Ok) {
        Span S("bytecode.compile");
        CP.Mod = compileProgram(*CP.Ast, Diags);
        Ok = CP.Mod != nullptr;
      }
      if (Ok) {
        Span S("bytecode.verify");
        Ok = bc::verifyModule(*CP.Mod).empty();
      }
      if (!Ok) {
        Res.fail("isort_serial: compile failed: " + Diags.str());
        return Outcome();
      }
      {
        Span S("vm.prepare");
        CP.Prep = vm::PreparedProgram::prepare(*CP.Mod);
      }
      {
        Span S("analysis.dataflow");
        CP.Dataflow = analysis::computeIndexDataflow(*CP.Ast);
      }
      prof::SessionOptions SO;
      SO.Seeds = Seeds;
      prof::ProfileDriver D(CP, SO);
      std::vector<prof::AlgorithmProfile> Profiles;
      {
        Span S("core.profiled_run");
        for (const vm::RunResult &R : D.runAll("Main", "main"))
          Ok = Ok && R.ok();
      }
      {
        Span S("core.build_profiles");
        Profiles = D.buildProfiles();
      }
      {
        Span S("report.render_json");
        Json = renderJson(D.tree(), D.inputs(), Profiles, D.failures());
      }
      Out = Clock.stop();
      // Profiles point into D's tree: check while it lives.
      if (!SortChecked) {
        checkQuadraticSort(Profiles, "isort_serial", Res);
        SortChecked = true;
      }
    }
    // Exact: the snapshot sees retired threads and this thread only.
    Counters.add(exactCounts(obs::snapshot().deltaFrom(Before)),
                 "isort_serial", Res);
    if (!Ok) {
      Res.fail("isort_serial: a profiled run failed");
      return Outcome();
    }
    uint64_t Digest = fnv1a(Json);
    if (FirstJson.empty()) {
      FirstJson = Json;
      FirstDigest = Digest;
    } else if (Digest != FirstDigest) {
      Res.fail("isort_serial: profile differs between sessions");
      return Outcome();
    }
    return Out;
  }

  void finish(const LoopStats *Traced, Results &Res) override {
    if (FirstJson.empty())
      return Res.fail("isort_serial: no session completed");
    if (!Traced || !SetupCP)
      return;
    // Per-layer: spans time the calls the session makes itself.
    double N = static_cast<double>(Traced->Latency.size());
    auto Spanned = [&](const char *Name) {
      return spanPerSession(Res, Name, N);
    };
    Res.layer("frontend.parse_s", Spanned("frontend.parse"), "s", "span");
    Res.layer("frontend.sema_s", Spanned("frontend.sema"), "s", "span");
    Res.layer("bytecode.compile_s", Spanned("bytecode.compile"), "s", "span");
    Res.layer("bytecode.verify_s", Spanned("bytecode.verify"), "s", "span");
    Res.layer("analysis.dataflow_s", Spanned("analysis.dataflow"), "s",
              "span");
    Res.layer("vm.prepare_s", Spanned("vm.prepare"), "s", "span");
    Res.layer("core.build_profiles_s", Spanned("core.build_profiles"), "s",
              "span");
    Res.layer("report.render_json_s", Spanned("report.render_json"), "s",
              "span");
    Res.layer("report.json_bytes", static_cast<double>(FirstJson.size()),
              "bytes", "exact");
    addObsPhases(Res, Traced->Obs, N, /*Frontend=*/false);
    CoreReplay Replay;
    Replay.add(*SetupCP, Seeds);
    addCoreLayer(Res, Counters.first(), Replay, 1.0);
  }

  uint64_t digest() const override { return FirstDigest; }

private:
  std::vector<int64_t> Seeds;
  std::string Source;
  std::unique_ptr<prof::CompiledProgram> SetupCP;
  std::string FirstJson;
  uint64_t FirstDigest = 0;
  bool SortChecked = false;
  CounterCheck Counters;
};

//--- corpus_parallel --------------------------------------------------------

/// One fresh CorpusRunner per session, as each `--corpus builtin` CLI
/// invocation has.
class CorpusParallel : public Workload {
public:
  void drawInputs(Rng &R) override { Seeds = corpusGrid(R); }

  void setup(Results &Res, bool) override {
    Entries.clear();
    Compiled.clear();
    for (const programs::CorpusProgram &P : programs::corpusPrograms()) {
      Entries.push_back({P.Name, P.Source});
      Compiled.push_back(compileOrDie(P.Source, Res));
    }
  }

  LoopStats loop(double Seconds, size_t Min, bool, Results &Res) override {
    return closedLoop(Seconds, Min, /*Rotate=*/false,
                      [&](size_t) { return session(Res); });
  }

  Outcome session(Results &Res) {
    obs::Snapshot Before = obs::snapshot();
    SessionClock Clock;
    std::vector<std::string> Docs;
    bool Ok = true;
    double RunAllS = 0;
    parallel::PoolStats Pool;
    {
      Span Root("session", true);
      prof::SessionOptions SO;
      SO.Seeds = Seeds;
      SO.Jobs = static_cast<int>(nproc());
      parallel::CorpusRunner Runner(SO);
      parallel::CorpusResult CR;
      {
        Span S("parallel.run_all");
        uint64_t R0 = nowNs();
        CR = Runner.run(Entries, "Main", "main");
        RunAllS = secondsSince(R0);
      }
      Pool = CR.Pool;
      for (parallel::CorpusProgramResult &P : CR.Programs) {
        if (!P.ok()) {
          Ok = false;
          Res.fail("corpus_parallel: " + P.Name + " failed: " + P.Error);
          continue;
        }
        std::vector<prof::AlgorithmProfile> Profiles;
        {
          Span S("core.build_profiles");
          Profiles = P.Engine->buildProfiles();
        }
        Span S("report.render_json");
        Docs.push_back(renderJson(P.Engine->tree(), P.Engine->inputs(),
                                  Profiles, P.Sweep.Failures));
      }
    }
    Outcome Out = Clock.stop();
    obs::Snapshot D = obs::snapshot().deltaFrom(Before);
    Counters.add(exactCounts(D), "corpus_parallel", Res);
    if (!Ok)
      return Outcome();
    std::vector<uint64_t> Digests;
    for (const std::string &Doc : Docs)
      Digests.push_back(fnv1a(Doc));
    if (FirstDocs.empty()) {
      FirstDocs = std::move(Docs);
      FirstDigests = Digests;
    } else if (Digests != FirstDigests) {
      Res.fail("corpus_parallel: profiles differ between sessions");
      return Outcome();
    }
    if (Trace.On) {
      RunAllTotalS += RunAllS;
      Executed += Pool.totalExecuted();
      Stolen += Pool.totalStolen();
      Workers = Pool.Executed.size();
    }
    return Out;
  }

  void finish(const LoopStats *Traced, Results &Res) override {
    if (FirstDocs.size() != Entries.size())
      return Res.fail("corpus_parallel: no complete session");
    // Byte-identity with a serial ProfileSession over the same seeds.
    CoreReplay Replay;
    for (size_t I = 0; I < Entries.size(); ++I) {
      if (!Compiled[I])
        continue;
      std::string Ref = serialReference(
          *Compiled[I], Seeds, Res,
          Entries[I].Name == "seeded_insertion_sort_random"
              ? "corpus_parallel"
              : nullptr);
      if (Ref.empty())
        Res.fail("corpus_parallel: serial reference failed for " +
                 Entries[I].Name);
      checkSerialIdentity(FirstDigests[I],
                          fnv1a(canonicalInputIds(FirstDocs[I])), Ref,
                          "corpus_parallel", Entries[I].Name, Res);
      if (Traced)
        Replay.add(*Compiled[I], Seeds);
    }
    checkTable1(Res);
    if (!Traced)
      return;
    double N = static_cast<double>(Traced->Latency.size());
    const obs::Snapshot &D = Traced->Obs;
    auto Spanned = [&](const char *Name) {
      return spanPerSession(Res, Name, N);
    };
    addObsPhases(Res, D, N, /*Frontend=*/true);
    Res.layer("core.build_profiles_s", Spanned("core.build_profiles"), "s",
              "span, 31 programs");
    size_t Bytes = 0;
    for (const std::string &Doc : FirstDocs)
      Bytes += Doc.size();
    Res.layer("report.render_json_s", Spanned("report.render_json"), "s",
              "span, 31 programs");
    Res.layer("report.json_bytes", static_cast<double>(Bytes), "bytes",
              "exact");
    addCoreLayer(Res, Counters.first(), Replay, 1.0);
    Res.layer("parallel.run_all_s", RunAllTotalS / N, "s", "span");
    Res.layer("parallel.shard_merge_s", phaseS(D, obs::Phase::ShardMerge) / N,
              "s", "obs phase");
    Res.layer("parallel.worker_busy_ratio",
              phaseS(D, obs::Phase::ShardRun) /
                  std::max(1e-12, RunAllTotalS * std::max<size_t>(1, Workers)),
              "ratio", "shard run / (run_all wall x workers)");
    Res.layer("parallel.critical_path_x",
              Replay.SumRunS / std::max(Replay.MaxRunS, 1e-12), "x",
              "solo replay: sum of runs / longest run");
    Res.layer("parallel.steal_ratio",
              Stolen / std::max<double>(1.0, static_cast<double>(Executed)),
              "ratio", "not exact: schedule-dependent");
    uint64_t Hits = count(D, obs::Counter::CorpusCompileHits);
    uint64_t Compiles = count(D, obs::Counter::CorpusCompiles);
    Res.layer("parallel.compile_cache_hit_ratio",
              Hits / std::max<double>(1.0, static_cast<double>(Hits + Compiles)),
              "ratio", "obs counters");
  }

  uint64_t digest() const override {
    uint64_t H = fnv1a("");
    for (const std::string &Doc : FirstDocs)
      H = fnv1a(Doc, H);
    return H;
  }

private:
  std::vector<int64_t> Seeds;
  std::vector<parallel::CorpusEntry> Entries;
  std::vector<std::unique_ptr<prof::CompiledProgram>> Compiled;
  std::vector<std::string> FirstDocs;
  std::vector<uint64_t> FirstDigests;
  CounterCheck Counters;
  double RunAllTotalS = 0;
  uint64_t Executed = 0, Stolen = 0;
  size_t Workers = 0;
};

//--- daemon_closed ----------------------------------------------------------

/// An in-process daemon with its journal on, driven by a client that
/// waits for each reply before submitting the next job.
class DaemonClosed : public Workload {
public:
  struct Spec {
    std::string Program;
    std::vector<int64_t> Seeds;
  };

  void drawInputs(Rng &R) override {
    // One job spec per corpus program, each over a grid drawn as
    // corpus_parallel's is (corpusGrid). Every run sees the whole
    // corpus, so the job mix (and with it the load) does not depend on
    // the seed; the seed draws the sizes and the client's order.
    for (const programs::CorpusProgram &P : programs::corpusPrograms())
      Specs.push_back({P.Name, corpusGrid(R)});
    for (size_t I = 0; I < Specs.size(); ++I)
      Order.push_back(I);
    R.shuffle(Order);
  }

  /// Starts a daemon with algoprofd's default options, plus a journal
  /// and a bounded retained-result store. algoprofd retains every
  /// result by default, so peak RSS would grow with the sessions a run
  /// completes and peak_rss_mb would read a faster daemon as a memory
  /// regression; RetainBytes keeps it flat once the store is full
  /// (after about a thousand sessions). Every start after the first
  /// reopens and replays the same journal, as a restarted daemon does;
  /// only the first creates it (a new file's first fdatasync commits
  /// file-system metadata and takes milliseconds, noise that set-up
  /// would otherwise report each time). Timed starts use a journal of
  /// their own, which no job reaches, so each measures the same work
  /// before and after the loop.
  void setup(Results &Res, bool Timed) override {
    teardown();
    std::filesystem::create_directories(Dir);
    service::DaemonOptions DO;
    DO.SocketPath = Dir + "/s.sock";
    DO.JournalPath = Dir + (Timed ? "/setup.wal" : "/journal.wal");
    DO.RetainBytes = 8u << 20;
    D = std::make_unique<service::Daemon>(DO);
    std::string Err;
    if (!D->start(Err)) {
      Res.fail("daemon_closed: daemon failed to start: " + Err);
      D.reset();
    }
  }

  void teardown() override {
    if (!D)
      return;
    LastStats = D->stats();
    D.reset(); // Joins every daemon thread (obs state retires).
  }

  uintmax_t journalSize() const {
    std::error_code EC;
    uintmax_t Size = std::filesystem::file_size(Dir + "/journal.wal", EC);
    return EC ? 0 : Size;
  }

  service::JobSpec job(size_t SpecIdx) const {
    service::JobSpec J;
    J.Corpus = Specs[SpecIdx].Program;
    J.Seeds = Specs[SpecIdx].Seeds;
    return J;
  }

  service::Client client() const {
    return service::Client::unixSocket(Dir + "/s.sock");
  }

  LoopStats loop(double Seconds, size_t Min, bool Traced,
                 Results &Res) override {
    if (!D) {
      LoopStats L;
      L.Attempted = L.Failed = 1;
      return L;
    }
    service::Client Cl = client();
    service::RetryPolicy Policy;
    Policy.ConnectRetries = 2;
    Policy.TimeoutMs = 60000;
    obs::Snapshot Before = obs::snapshot();
    uintmax_t JournalBefore = journalSize();
    LoopStats L = closedLoop(Seconds, Min, /*Rotate=*/false, [&](size_t I) {
      size_t SpecIdx = Order[I % Specs.size()];
      service::JobSpec J = job(SpecIdx);
      JobOutcome O = session(Cl, J, Policy);
      TransportRetries += O.Retries;
      if (!O.Ok) {
        Res.fail("daemon_closed: " + J.Corpus + ": " + O.Error);
        return Outcome();
      }
      Observed.push_back({SpecIdx, O.Digest, O.CanonDigest});
      if (Traced)
        FinishTotalS += O.FinishS;
      return Outcome{O.LatencyS, O.CpuS, O.FirstDeltaS};
    });
    teardown(); // Retire the daemon's threads so obs totals are exact.
    L.Obs = obs::snapshot().deltaFrom(Before);
    if (Traced) {
      TracedStats = LastStats;
      TracedJournalBytes = journalSize() - JournalBefore;
    }
    return L;
  }

  struct JobOutcome {
    bool Ok = false;
    std::string Error;
    double LatencyS = 0, CpuS = 0, FirstDeltaS = 0;
    double FinishS = 0; ///< Last RunDelta to the end of the stream.
    uint64_t Digest = 0, CanonDigest = 0; ///< Raw and canonical ids.
    unsigned Retries = 0;
  };

  /// One completed session: its job spec and profile digests.
  struct Served {
    size_t Spec;
    uint64_t Digest, CanonDigest;
  };

  /// One session: the typed client, as algoprof_client drives it, in
  /// traced and untraced segments alike. The delta callback stamps the
  /// first and last RunDelta arrivals; a traced segment records them
  /// as the spans service.first_delta and service.stream.
  static JobOutcome session(const service::Client &Cl,
                            const service::JobSpec &J,
                            const service::RetryPolicy &Policy) {
    JobOutcome O;
    service::TypedResult R;
    uint64_t T0 = 0, T1 = 0, Cpu0 = 0, FirstNs = 0, LastNs = 0;
    {
      Span Root("session", true);
      Cpu0 = cpuNs();
      T0 = nowNs();
      R = Cl.run(J, Policy, [&](const service::RunDeltaMsg &) {
        LastNs = nowNs();
        if (!FirstNs)
          FirstNs = LastNs;
      });
      T1 = nowNs();
      O.CpuS = (cpuNs() - Cpu0) * 1e-9;
      if (!FirstNs) // Every delta dropped: the profile is the first sign.
        FirstNs = LastNs = T1;
      markSpan("service.first_delta", T0, FirstNs);
      markSpan("service.stream", FirstNs, T1);
    }
    O.Retries = R.TransportRetries;
    if (!R.Ok || !R.HaveProfile || R.Summary.DegradedRuns != 0) {
      O.Error = R.Error.Code + ": " + R.Error.Message;
      return O;
    }
    O.Ok = true;
    O.LatencyS = (T1 - T0) * 1e-9;
    O.FirstDeltaS = (FirstNs - T0) * 1e-9;
    O.FinishS = (T1 - LastNs) * 1e-9;
    O.Digest = fnv1a(R.ProfileJson);
    O.CanonDigest = fnv1a(canonicalInputIds(R.ProfileJson));
    return O;
  }

  /// Submit-to-Accepted time, which the typed client does not expose:
  /// one client alone walks every job spec on a fresh daemon, reading
  /// the frames through service/Protocol itself. Runs after the timed
  /// loop; only service.accept_s comes from it. Median over the specs.
  double acceptProbe(Results &Res) {
    setup(Res, false);
    if (!D)
      return 0;
    std::vector<double> Accept;
    std::string Path = Dir + "/s.sock";
    for (size_t I = 0; I < Specs.size(); ++I) {
      int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
      uint64_t T0 = nowNs(), AcceptNs = 0;
      bool Done = false;
      if (Fd >= 0 &&
          ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
              0 &&
          service::sendFrame(Fd, service::FrameType::Job,
                             service::encodeJobRequest(job(I)))) {
        service::Frame F;
        while (!Done && service::readFrame(Fd, F, size_t(1) << 28) ==
                            service::ReadStatus::Ok) {
          if (F.Type == service::FrameType::Accepted && !AcceptNs)
            AcceptNs = nowNs();
          Done = F.Type == service::FrameType::Done ||
                 F.Type == service::FrameType::Error;
        }
      }
      if (Fd >= 0)
        ::close(Fd);
      if (AcceptNs)
        Accept.push_back((AcceptNs - T0) * 1e-9);
      else
        Res.fail("daemon_closed: accept probe got no Accepted for " +
                 Specs[I].Program);
    }
    teardown();
    return median(Accept);
  }

  void finish(const LoopStats *Traced, Results &Res) override {
    // Byte-identity of every session's profile with the serial session.
    std::vector<std::string> RefDocs(Specs.size());
    CoreReplay Replay;
    // Specs are the corpus programs, in corpus order.
    const auto &Corpus = programs::corpusPrograms();
    for (size_t I = 0; I < Specs.size(); ++I) {
      auto CP = compileOrDie(Corpus[I].Source, Res);
      if (!CP)
        continue;
      RefDocs[I] = serialReference(
          *CP, Specs[I].Seeds, Res,
          Specs[I].Program == "seeded_insertion_sort_random"
              ? "daemon_closed"
              : nullptr);
      if (RefDocs[I].empty())
        Res.fail("daemon_closed: serial reference failed for " +
                 Specs[I].Program);
      if (Traced)
        Replay.add(*CP, Specs[I].Seeds);
    }
    // Every session of a spec must serve the same bytes, and those
    // must be the serial session's.
    FirstServed.assign(Specs.size(), nullptr);
    size_t Mismatches = 0;
    for (const Served &S : Observed) {
      const Served *&First = FirstServed[S.Spec];
      if (!First)
        First = &S;
      else if (S.Digest != First->Digest)
        ++Mismatches;
    }
    if (Mismatches) {
      Res.Failed += Mismatches;
      Res.fail("daemon_closed: " + std::to_string(Mismatches) +
               " session(s) served a profile differing from an earlier "
               "session of the same job");
    }
    for (size_t I = 0; I < Specs.size(); ++I) {
      if (!FirstServed[I]) {
        Res.fail("daemon_closed: job " + Specs[I].Program +
                 " never completed");
        continue;
      }
      checkSerialIdentity(FirstServed[I]->Digest, FirstServed[I]->CanonDigest,
                          RefDocs[I], "daemon_closed", Specs[I].Program, Res);
    }
    checkTable1(Res);
    if (!Traced)
      return;

    // Exact counters: one sequential pass over every spec on a fresh
    // daemon, twice; both passes must count the same work.
    ExactCounts Pass[2];
    for (ExactCounts &P : Pass) {
      obs::Snapshot Before = obs::snapshot();
      setup(Res, false);
      if (!D)
        return;
      service::Client Cl = client();
      for (size_t I = 0; I < Specs.size(); ++I)
        if (!session(Cl, job(I), service::RetryPolicy()).Ok)
          Res.fail("daemon_closed: counting pass session failed");
      teardown();
      P = exactCounts(obs::snapshot().deltaFrom(Before));
    }
    for (size_t I = 0; I < ExactCounters.size(); ++I)
      if (Pass[0][I] != Pass[1][I])
        Res.fail(std::string("daemon_closed: ") + ExactCounters[I].first +
                 " differs between two passes over the same jobs");
    double K = static_cast<double>(Specs.size());
    ExactCounts PerSession{};
    for (size_t I = 0; I < PerSession.size(); ++I)
      PerSession[I] = static_cast<uint64_t>(std::llround(Pass[0][I] / K));

    double N = static_cast<double>(Traced->Latency.size());
    const obs::Snapshot &Ob = Traced->Obs;
    auto Spanned = [&](const char *Name) {
      return spanPerSession(Res, Name, N);
    };
    addObsPhases(Res, Ob, N, /*Frontend=*/true);
    Res.layer("core.build_profiles_s",
              phaseS(Ob, obs::Phase::BuildProfiles) / N, "s",
              "obs phase (final profile + per-delta fits)");
    Res.layer("report.render_json_s", phaseS(Ob, obs::Phase::Report) / N, "s",
              "obs phase");
    size_t Bytes = 0;
    for (const std::string &Doc : RefDocs)
      Bytes += Doc.size();
    Res.layer("report.json_bytes", Bytes / K, "bytes", "mean over job specs");
    addCoreLayer(Res, PerSession, Replay, 1.0 / K);
    Res.layer("parallel.shard_merge_s",
              phaseS(Ob, obs::Phase::ShardMerge) / N, "s", "obs phase");
    Res.layer("parallel.critical_path_x",
              Replay.SumRunS / std::max(Replay.MaxRunS, 1e-12), "x",
              "solo replay: sum of runs / longest run, whole job mix");
    Res.layer("parallel.steal_ratio",
              count(Ob, obs::Counter::JobsStolen) /
                  std::max(1.0, static_cast<double>(
                                    count(Ob, obs::Counter::JobsExecuted))),
              "ratio", "not exact: schedule-dependent");
    uint64_t Hits = count(Ob, obs::Counter::CorpusCompileHits);
    uint64_t Compiles = count(Ob, obs::Counter::CorpusCompiles);
    Res.layer("parallel.compile_cache_hit_ratio",
              Hits / std::max<double>(1.0, static_cast<double>(Hits + Compiles)),
              "ratio", "obs counters");
    Res.layer("service.accept_s", acceptProbe(Res), "s",
              "probe: submit to Accepted, one client alone");
    Res.layer("service.first_delta_s", Spanned("service.first_delta"), "s",
              "span: submit to first RunDelta");
    Res.layer("service.stream_s", Spanned("service.stream"), "s",
              "span: first RunDelta to Done");
    Res.layer("service.finish_s", FinishTotalS / N, "s",
              "last RunDelta to Done: final profile build and send");
    const service::Daemon::Stats &S = TracedStats;
    Res.layer("service.bytes_streamed", S.BytesStreamed / N, "bytes",
              "per session");
    Res.layer("service.deltas_streamed", S.DeltasStreamed / N, "count",
              "per session");
    Res.layer("service.deltas_dropped", static_cast<double>(S.DeltasDropped),
              "count", "traced segment");
    Res.layer("service.journal_bytes", TracedJournalBytes / N, "bytes",
              "per session");
    Res.layer("service.sessions_rejected", static_cast<double>(S.Rejected),
              "count", "traced segment");
    Res.layer("service.transport_retries",
              static_cast<double>(TransportRetries), "count", "whole run");
  }

  uint64_t digest() const override {
    uint64_t H = fnv1a("");
    for (const Served *S : FirstServed)
      H = fnv1a(hex64(S ? S->Digest : 0), H);
    return H;
  }

private:
  std::vector<Spec> Specs;
  std::vector<size_t> Order; ///< The client's walk over Specs.
  std::unique_ptr<service::Daemon> D;
  const std::string Dir = "daemon"; ///< Socket and journal, in --workdir.
  service::Daemon::Stats LastStats, TracedStats;
  uintmax_t TracedJournalBytes = 0;
  uint64_t TransportRetries = 0;
  double FinishTotalS = 0; ///< Traced sessions only.
  std::vector<Served> Observed;
  std::vector<const Served *> FirstServed; ///< Per spec, into Observed.
};

//===----------------------------------------------------------------------===//
// Command line and output
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  std::string WorkDir = ".";
  std::string ResultFile, TraceFile, DigestFile, SourceId = "unknown";
  std::string IdOnlyFile; ///< Programs expected to differ in ids only.
  bool UpdateDigests = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "isort_serial|corpus_parallel|daemon_closed --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--result FILE] "
               "[--trace-out FILE] [--digests FILE [--update-digests]] "
               "[--id-only FILE] [--source-id ID]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--update-digests") {
      O.UpdateDigests = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("invalid --seed");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0))
        usage("invalid --seconds");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Traced = V == "1";
    } else if (A == "--workdir")
      O.WorkDir = V;
    else if (A == "--result")
      O.ResultFile = V;
    else if (A == "--trace-out")
      O.TraceFile = V;
    else if (A == "--digests")
      O.DigestFile = V;
    else if (A == "--id-only")
      O.IdOnlyFile = V;
    else if (A == "--source-id")
      O.SourceId = V;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Workload.empty())
    usage("--workload is required");
  return O;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "isort_serial")
    return std::make_unique<IsortSerial>();
  if (Name == "corpus_parallel")
    return std::make_unique<CorpusParallel>();
  if (Name == "daemon_closed")
    return std::make_unique<DaemonClosed>();
  return nullptr;
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      O += ' ';
      continue;
    }
    O += C;
  }
  return O;
}

std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string resultJson(const Options &O, const Results &Res) {
  std::ostringstream J;
  J << "{\"workload\":\"" << jsonEscape(O.Workload) << "\",\"seed\":" << O.Seed
    << ",\"seconds\":" << num(O.Seconds) << ",\"trace\":" << O.Traced
    << ",\"correct\":" << (Res.Failures.empty() ? "true" : "false")
    << ",\"attempted\":" << Res.Attempted << ",\"failed\":" << Res.Failed
    << ",\"metrics\":{";
  bool First = true;
  for (const auto &[Kind, List] :
       {std::pair{"end_to_end", &Res.EndToEnd},
        std::pair{"per_layer", &Res.PerLayer}})
    for (const Metric &M : *List) {
      J << (First ? "" : ",") << "\"" << M.Name << "\":{\"value\":"
        << num(M.Value) << ",\"unit\":\"" << M.Unit << "\",\"kind\":\""
        << Kind << "\",\"note\":\"" << jsonEscape(M.Note) << "\"}";
      First = false;
    }
  J << "},\"provenance\":{";
  First = true;
  for (const auto &[K, V] : Res.Provenance) {
    J << (First ? "" : ",") << "\"" << K << "\":\"" << jsonEscape(V) << "\"";
    First = false;
  }
  J << "},\"input_id_deltas\":[";
  First = true;
  for (const std::string &P : Res.InputIdDeltas) {
    J << (First ? "" : ",") << "\"" << jsonEscape(P) << "\"";
    First = false;
  }
  J << "],\"failures\":[";
  for (size_t I = 0; I < Res.Failures.size(); ++I)
    J << (I ? "," : "") << "\"" << jsonEscape(Res.Failures[I]) << "\"";
  J << "]}\n";
  return J.str();
}

/// Default-seed digests: lines "WORKLOAD SEED HEX". Checks the entry
/// for this run when one exists; --update-digests rewrites it.
void checkDigest(const Options &O, const std::string &Digest, Results &Res) {
  if (O.DigestFile.empty())
    return;
  std::vector<std::string> Lines;
  std::string Want;
  {
    std::ifstream In(O.DigestFile);
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream LS(Line);
      std::string W, Hex;
      uint64_t Seed = 0;
      if (Line.empty() || Line[0] == '#' || !(LS >> W >> Seed >> Hex) ||
          W != O.Workload || Seed != O.Seed) {
        Lines.push_back(Line);
        continue;
      }
      Want = Hex;
    }
  }
  if (O.UpdateDigests) {
    Lines.push_back(O.Workload + " " + std::to_string(O.Seed) + " " + Digest);
    std::ofstream Out(O.DigestFile);
    for (const std::string &L : Lines)
      Out << L << "\n";
    std::printf("digest: wrote %s %llu %s\n", O.Workload.c_str(),
                static_cast<unsigned long long>(O.Seed), Digest.c_str());
    return;
  }
  if (Want.empty()) {
    std::printf("digest: %s (no committed digest for this seed)\n",
                Digest.c_str());
    return;
  }
  if (Want != Digest)
    Res.fail("profile digest " + Digest + " does not match the committed " +
             Want);
  else
    std::printf("digest: %s matches the committed digest\n", Digest.c_str());
}

/// The serial-identity check tolerates input-id renumbering only for
/// the programs listed in --id-only (one name per line, '#' comments):
/// a program that newly needs it, or no longer does, fails the run.
void checkIdOnly(const Options &O, Results &Res) {
  if (O.IdOnlyFile.empty())
    return;
  std::ifstream In(O.IdOnlyFile);
  if (!In)
    return Res.fail("cannot read " + O.IdOnlyFile);
  std::set<std::string> Want;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Want.insert(Line);
  for (const std::string &P : Res.InputIdDeltas)
    if (!Want.count(P))
      Res.fail(P + " matches the serial session only up to input-id "
                   "numbering, and is not listed in " + O.IdOnlyFile);
  for (const std::string &P : Want)
    if (!Res.InputIdDeltas.count(P))
      Res.fail(P + " is listed in " + O.IdOnlyFile +
               " but now matches the serial session byte for byte");
}

void printMetrics(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-34s %16.6g %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

void printSelfTimes(const SelfTimes &T) {
  if (!T.Sessions)
    return;
  double N = static_cast<double>(T.Sessions);
  std::printf("self time by layer (traced, per session, %llu sessions)\n",
              static_cast<unsigned long long>(T.Sessions));
  double Sum = 0;
  for (const auto &[Layer, S] : T.ByLayer) {
    std::printf("  %-14s %12.6f s %6.1f%%\n", Layer.c_str(), S / N,
                100.0 * S / std::max(T.SessionWall, 1e-12));
    Sum += S;
  }
  std::printf("  %-14s %12.6f s (session wall %.6f s; worst per-session "
              "mismatch %.3g s)\n",
              "sum", Sum / N, T.SessionWall / N, T.WorstMismatchS);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  // Output paths are relative to the caller, not to --workdir.
  for (std::string *P :
       {&O.ResultFile, &O.TraceFile, &O.DigestFile, &O.IdOnlyFile})
    if (!P->empty())
      *P = std::filesystem::absolute(*P).string();
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    usage(("unknown workload '" + O.Workload + "'").c_str());
  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  std::filesystem::current_path(O.WorkDir, EC);
  if (EC)
    usage(("cannot enter --workdir " + O.WorkDir).c_str());

  Results Res;
  Res.Provenance = {
      {"nproc", std::to_string(nproc())},
#if defined(__clang__)
      {"compiler", "clang " __clang_version__},
#elif defined(__GNUC__)
      {"compiler", "gcc " __VERSION__},
#else
      {"compiler", "unknown"},
#endif
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"algoprof_obs", std::to_string(ALGOPROF_OBS_ENABLED)},
      {"threaded_dispatch",
       std::to_string(ALGOPROF_THREADED_DISPATCH_ENABLED)},
      {"source", O.SourceId},
      {"seed", std::to_string(O.Seed)},
  };
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Traced ? 1 : 0);

  Rng R(O.Seed);
  W->drawInputs(R);

  // Set-up is timed in two batches, before the loop and after it, each
  // set-up pinned to the next allowed CPU in turn: single vCPUs of a
  // shared host run at different speeds for seconds at a time, and a
  // median over all of them, at two times, moves less between runs
  // than one CPU's at one time. Timed set-ups are torn down again; the
  // one the loop uses runs unpinned, so the threads it starts (the
  // daemon's) may use every CPU.
  std::vector<double> Setups;
  auto TimeSetups = [&](int N) {
    for (int I = 0; I < N; ++I) {
      Rotation.pin(Setups.size());
      uint64_t T0 = nowNs();
      W->setup(Res, true);
      Setups.push_back(secondsSince(T0));
      W->teardown();
    }
    Rotation.unpin();
  };
  TimeSetups(SetupReps / 2);
  W->setup(Res, false);

  LoopStats Main, Traced;
  if (!O.Traced) {
    Main = W->loop(O.Seconds, MinSessions, false, Res);
  } else {
    // Half the time untraced, half traced: the ratio of the two
    // segments' throughput is the tracing overhead.
    Main = W->loop(O.Seconds / 2, 1, false, Res);
    W->teardown();
    W->setup(Res, false);
    Trace.On = true;
    Traced = W->loop(O.Seconds / 2, 1, true, Res);
    Trace.On = false;
  }
  double RssMb = peakRssMb();
  W->teardown();
  TimeSetups(SetupReps - SetupReps / 2);
  std::vector<SpanRec> Spans = Trace.take();
  if (O.Traced)
    Res.Self = selfTimes(Spans);

  for (const LoopStats *L : {&Main, &Traced}) {
    Res.Attempted += L->Attempted;
    Res.Failed += L->Failed;
  }
  W->finish(O.Traced ? &Traced : nullptr, Res);
  if (O.Workload != "isort_serial")
    checkIdOnly(O, Res);

  size_t P90Beyond = 0;
  double Sessions = static_cast<double>(Main.Latency.size());
  double P90 = percentile(Main.Latency, 0.9, P90Beyond);
  std::string N = "n=" + std::to_string(Main.Latency.size());
  Res.Provenance["samples_session"] = std::to_string(Main.Latency.size());
  Res.Provenance["samples_beyond_p90"] = std::to_string(P90Beyond);
  Res.Provenance["samples_setup"] = std::to_string(Setups.size());
  size_t CpuP90Beyond = 0;
  double CpuP50 = median(Main.Cpu);
  double CpuP90 = percentile(Main.Cpu, 0.9, CpuP90Beyond);
  double Ref = median(Main.Reference);
  std::string NRef = "n=" + std::to_string(Main.Reference.size());
  Res.Provenance["samples_reference"] = std::to_string(Main.Reference.size());
  Res.e2e("setup_s", median(Setups), "s",
          "median of " + std::to_string(SetupReps) + " set-ups");
  size_t RefP90Beyond = 0;
  double RefP90 = percentile(Main.CpuRef, 0.9, RefP90Beyond);
  Res.e2e("session_cpu_p50_ref", median(Main.CpuRef), "ref",
          N + ", session CPU / median reference CPU");
  Res.e2e("session_cpu_p90_ref", RefP90, "ref",
          N + ", " + std::to_string(RefP90Beyond) + " beyond");
  Res.e2e("peak_rss_mb", RssMb, "MB", "getrusage ru_maxrss");
  Res.e2e("sessions_per_s", Sessions / std::max(Main.WallS, 1e-12), "1/s", N);
  Res.e2e("session_p50_s", median(Main.Latency), "s", N);
  Res.e2e("session_p90_s", P90, "s",
          N + ", " + std::to_string(P90Beyond) + " beyond");
  Res.e2e("session_cpu_p50_s", CpuP50, "s", N + ", process CPU");
  Res.e2e("session_cpu_p90_s", CpuP90, "s",
          N + ", " + std::to_string(CpuP90Beyond) + " beyond, process CPU");
  Res.e2e("reference_cpu_s", Ref, "s", NRef + ", thread CPU, median");
  if (!Main.FirstDelta.empty()) {
    Res.Provenance["samples_first_delta"] =
        std::to_string(Main.FirstDelta.size());
    Res.e2e("first_delta_p50_s", median(Main.FirstDelta), "s",
            "n=" + std::to_string(Main.FirstDelta.size()));
  }
  Res.e2e("failed_ratio",
          Res.Failed / std::max(1.0, static_cast<double>(Res.Attempted)),
          "ratio", "failed / attempted");
  if (!O.Traced && P90Beyond < 10)
    Res.fail("session_p90_s has fewer than 10 samples beyond it");

  if (O.Traced) {
    double TracedRate = Traced.Latency.size() / std::max(Traced.WallS, 1e-12);
    double UntracedRate = Sessions / std::max(Main.WallS, 1e-12);
    Res.layer("obs.trace_overhead_x", UntracedRate / std::max(TracedRate, 1e-12),
              "x", "untraced / traced sessions_per_s");
    Res.layer("obs.trace_events_dropped", static_cast<double>(Trace.dropped()),
              "count", "spans over the in-memory cap");
    if (Res.Self.WorstMismatchS > 1e-6)
      Res.fail("self times do not add up to the session wall time");
    if (!O.TraceFile.empty()) {
      std::ofstream Out(O.TraceFile);
      Out << chromeTrace(Spans);
      if (!Out)
        Res.fail("cannot write trace " + O.TraceFile);
      else
        std::printf("trace: wrote %s (%zu spans)\n", O.TraceFile.c_str(),
                    Spans.size());
    }
  }

  checkDigest(O, hex64(W->digest()), Res);

  std::printf("provenance:");
  for (const auto &[K, V] : Res.Provenance)
    std::printf(" %s=%s", K.c_str(), V.c_str());
  std::printf("\n");
  printMetrics("end-to-end (untraced)", Res.EndToEnd);
  if (O.Traced) {
    printMetrics("per-layer (traced)", Res.PerLayer);
    printSelfTimes(Res.Self);
  }
  if (!Res.InputIdDeltas.empty()) {
    std::printf("serial identity: %zu profile(s) match the serial session "
                "only up to input-id numbering (docs/parallel_sweeps.md, "
                "Caveats):",
                Res.InputIdDeltas.size());
    for (const std::string &P : Res.InputIdDeltas)
      std::printf(" %s", P.c_str());
    std::printf("\n");
  }
  for (const std::string &F : Res.Failures)
    std::printf("FAILED: %s\n", F.c_str());
  std::printf("checks: %s (%llu/%llu sessions failed)\n",
              Res.Failures.empty() ? "all passed" : "FAILED",
              static_cast<unsigned long long>(Res.Failed),
              static_cast<unsigned long long>(Res.Attempted));

  if (!O.ResultFile.empty()) {
    std::ofstream Out(O.ResultFile);
    Out << resultJson(O, Res);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", O.ResultFile.c_str());
      return 1;
    }
  }
  std::fflush(stdout);
  return Res.Failures.empty() && Res.Failed == 0 ? 0 : 1;
}
