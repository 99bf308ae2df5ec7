//===- Serve.cpp - open-loop serving workloads --------------------------------===//
//
// An in-process Server with two workers, wrapped around CompileService
// exactly as `compile_minic --serve --serve-workers=2` builds it, serves
// one connection (a socket pair) from one client thread. The client sends
// on a fixed schedule whatever the server does (an open loop) and times
// each request from its scheduled send, so a stall charges every request
// it delays. Every Ok response must be byte-identical to a single-shot
// CompileService::compile of the same source.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Frame.h"
#include "support/Server.h"
#include "support/Strings.h"

#include <algorithm>
#include <cmath>
#include <cerrno>
#include <cstdio>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace pb;

namespace {

/// Programs in the serving population.
constexpr int ServePrograms = 128;

/// Seconds a phase may wait for its last responses before counting them
/// as lost.
constexpr double DrainSeconds = 15;

/// Seconds of one round of the untraced serving run (each round has a
/// saturation burst); a run holds as many rounds as fit.
constexpr double RoundSeconds = 5;

/// Server workers, as `compile_minic --serve --serve-workers=2` runs.
constexpr int Workers = 2;

/// The fixed rates, against a 2-worker capacity of about 200 req/s on a
/// 4-CPU machine when the benchmark was set up: about 30% and 70% of it.
constexpr double LoRps = 60;
constexpr double HiRps = 140;

/// A ladder rung meets the limit when its tail latency is at most LimitMs
/// and the generator's lateness tail at most LateBoundMs (beyond that the
/// offered schedule was not kept).
constexpr double LimitMs = 100;
constexpr double LateBoundMs = 20;

/// The traced run's reload segment: a Reload frame after every
/// ReloadEvery-th answer.
constexpr int ReloadEvery = 40;

/// The rate ladder: LadderRungs rungs from LadderFirstRps up in steps of
/// LadderStep, wide enough for twice the capacity at the time the
/// benchmark was set up.
constexpr double LadderFirstRps = 40;
constexpr double LadderStep = 1.04;
constexpr int LadderRungs = 72;

/// Handler entry/exit, recorded by the traced run's wrapped handler.
struct HandlerTimes {
  uint64_t EntryNs = 0;
  uint64_t ExitNs = 0;
};

/// One request's client-side timeline.
struct Request {
  uint64_t DueNs = 0;      ///< scheduled send
  uint64_t EncodeNs = 0;   ///< encode began
  uint64_t SentNs = 0;     ///< encoded and written
  uint64_t ReadNs = 0;     ///< response frame complete
  uint64_t DecodedNs = 0;  ///< response decoded and checked
  size_t Prog = 0;
  bool Answered = false;
};

/// What one open-loop phase measured; a phase may run as several
/// segments spread over the run, which all add to it.
struct Phase {
  double Rps = 0;
  int ReloadEvery = 0; ///< reload after every this many answers; 0: never
  std::vector<double> LatMs, LateMs;
  std::vector<double> Backlog; ///< outstanding requests at each send
  int BacklogMax = 0;
  uint64_t Overloaded = 0;
  uint64_t NonOk = 0;
  uint64_t Mismatch = 0;
  uint64_t Lost = 0;
  std::vector<double> ReloadPauseMs;
  std::vector<std::pair<size_t, size_t>> Ids; ///< [first, end) per segment
  size_t Sent = 0;

  double tailMs() const { return tailOf(LatMs).Value; }
  double lateTailMs() const { return tailOf(LateMs).Value; }
  /// The backlog grows across the phase when its second half runs with a
  /// clearly higher median outstanding count than its first half.
  bool backlogGrows() const {
    size_t H = Backlog.size() / 2;
    std::vector<double> A(Backlog.begin(), Backlog.begin() + H);
    std::vector<double> B(Backlog.begin() + H, Backlog.end());
    return median(B) > median(A) * 1.5 + 2;
  }
  uint64_t failures() const { return NonOk + Mismatch + Lost + Overloaded; }
};

/// The in-process server on one end of a socket pair.
class InProcessServer {
public:
  InProcessServer(gg::CompileHandler Handler, gg::CompileService &Svc)
      : Srv(std::move(Handler), options()) {
    Srv.setReloader(Svc.reloader());
    Srv.setStatusAugmenter(Svc.statusAugmenter());
  }
  InProcessServer(const InProcessServer &) = delete;
  InProcessServer &operator=(const InProcessServer &) = delete;
  ~InProcessServer() { stop(); }

  bool start() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return false;
    Thread = std::thread([this] { Srv.serveFds(Fds[0], Fds[0]); });
    return true;
  }

  /// Sends Shutdown, waits for the server to drain and return.
  void stop() {
    if (!Thread.joinable())
      return;
    std::string Out;
    gg::appendFrame(Out, gg::FrameType::Shutdown, "");
    writeAll(Out);
    ::shutdown(Fds[1], SHUT_WR);
    Thread.join();
    ::close(Fds[0]);
    ::close(Fds[1]);
  }

  int clientFd() const { return Fds[1]; }

  bool writeAll(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::write(Fds[1], Bytes.data() + Off, Bytes.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

private:
  static gg::ServerOptions options() {
    gg::ServerOptions O; // compile_minic --serve defaults
    O.Workers = Workers;
    return O;
  }

  gg::Server Srv;
  int Fds[2] = {-1, -1};
  std::thread Thread;
};

/// The single client thread: sends on schedule, reads whatever arrives
/// between sends.
class Client {
public:
  Client(InProcessServer &Srv, const std::vector<Program> &Progs,
         const std::vector<std::string> &Expected)
      : Srv(Srv), Progs(Progs), Expected(Expected) {}

  std::vector<Request> Requests;

  /// Runs one segment of \p P lasting \p Seconds: sends on schedule, then
  /// waits for every answer.
  bool run(Phase &P, double Seconds) {
    const size_t First = Requests.size();
    const size_t N = static_cast<size_t>(P.Rps * Seconds + 0.5);
    const double GapNs = 1e9 / P.Rps;
    const uint64_t T0 = nowNs() + 1'000'000;
    size_t Outstanding = 0;
    size_t Next = 0;
    uint64_t ReloadSentNs = 0;
    uint64_t GiveUpNs = 0;
    Cur = &P;
    while (true) {
      uint64_t Now = nowNs();
      if (Next < N) {
        uint64_t Due = T0 + static_cast<uint64_t>(GapNs * Next);
        if (Now >= Due) {
          if (!send(Due))
            return false;
          ++Next;
          ++Outstanding;
          P.Backlog.push_back(static_cast<double>(Outstanding));
          P.BacklogMax = std::max(P.BacklogMax, static_cast<int>(Outstanding));
          continue;
        }
      } else if (Outstanding == 0 && !ReloadSentNs) {
        break;
      } else if (!GiveUpNs) {
        GiveUpNs = Now + static_cast<uint64_t>(DrainSeconds * 1e9);
      } else if (Now >= GiveUpNs) {
        P.Lost += Outstanding;
        break;
      }
      uint64_t WaitNs =
          Next < N ? T0 + static_cast<uint64_t>(GapNs * Next) - Now
                   : 5'000'000;
      struct pollfd PF = {Srv.clientFd(), POLLIN, 0};
      struct timespec TS = {static_cast<time_t>(WaitNs / 1'000'000'000),
                            static_cast<long>(WaitNs % 1'000'000'000)};
      int R = ::ppoll(&PF, 1, &TS, nullptr);
      if (R < 0 && errno != EINTR)
        return false;
      if (R > 0 && !receive(Outstanding, ReloadSentNs))
        return false;
    }
    P.Sent += Next;
    P.Ids.push_back({First, Requests.size()});
    Cur = nullptr;
    return true;
  }

private:
  InProcessServer &Srv;
  const std::vector<Program> &Progs;
  const std::vector<std::string> &Expected;
  uint64_t Answered = 0; ///< responses so far, all phases
  Phase *Cur = nullptr;
  gg::FrameReader Reader;

  /// Sends the next request; programs rotate over the whole run.
  bool send(uint64_t Due) {
    Request Q;
    Q.DueNs = Due;
    Q.Prog = Requests.size() % Progs.size();
    Q.EncodeNs = nowNs();
    gg::RequestMsg M;
    M.Id = Requests.size() + 1;
    M.Source = Progs[Q.Prog].Source;
    std::string Out;
    gg::appendFrame(Out, gg::FrameType::Request, gg::encodeRequest(M));
    if (!Srv.writeAll(Out))
      return false;
    Q.SentNs = nowNs();
    Cur->LateMs.push_back(static_cast<double>(Q.EncodeNs - Due) * 1e-6);
    Requests.push_back(Q);
    return true;
  }

  bool receive(size_t &Outstanding, uint64_t &ReloadSentNs) {
    char Buf[1 << 16];
    ssize_t N = ::read(Srv.clientFd(), Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      return true;
    if (N <= 0)
      return false;
    Reader.feed(Buf, static_cast<size_t>(N));
    gg::Frame F;
    while (true) {
      gg::FrameReader::Status St = Reader.next(F);
      if (St == gg::FrameReader::Status::NeedMore)
        return true;
      if (St == gg::FrameReader::Status::Corrupt)
        return false;
      uint64_t ReadNs = nowNs();
      std::string Err;
      switch (F.Type) {
      case gg::FrameType::Response: {
        gg::ResponseMsg M;
        if (!gg::decodeResponse(F.Payload, M, Err) || M.Id == 0 ||
            M.Id > Requests.size())
          return false;
        Request &Q = Requests[M.Id - 1];
        Q.ReadNs = ReadNs;
        Q.Answered = true;
        --Outstanding;
        if (M.Status != gg::ResponseStatus::Ok)
          ++Cur->NonOk;
        else if (M.Payload != Expected[Q.Prog])
          ++Cur->Mismatch;
        Q.DecodedNs = nowNs();
        Cur->LatMs.push_back(static_cast<double>(Q.DecodedNs - Q.DueNs) *
                             1e-6);
        // A reloading phase sends a Reload frame after every
        // Cur->ReloadEvery-th answer, one reload at a time.
        ++Answered;
        if (Cur->ReloadEvery && Answered % Cur->ReloadEvery == 0 &&
            !ReloadSentNs) {
          std::string Out;
          gg::appendFrame(Out, gg::FrameType::Reload, "");
          if (!Srv.writeAll(Out))
            return false;
          ReloadSentNs = nowNs();
        }
        break;
      }
      case gg::FrameType::Overloaded: {
        gg::OverloadMsg M;
        if (!gg::decodeOverload(F.Payload, M, Err))
          return false;
        ++Cur->Overloaded;
        --Outstanding;
        break;
      }
      case gg::FrameType::Reloaded: {
        gg::ReloadedMsg M;
        if (!gg::decodeReloaded(F.Payload, M, Err) || !M.Ok)
          return false;
        Cur->ReloadPauseMs.push_back(
            static_cast<double>(ReadNs - ReloadSentNs) * 1e-6);
        ReloadSentNs = 0;
        break;
      }
      default:
        return false;
      }
    }
  }
};

/// Whether a phase meets the latency limit with an honest generator and
/// no growing backlog.
bool meets(const Phase &P) {
  return P.failures() == 0 && P.tailMs() <= LimitMs &&
         P.lateTailMs() <= LateBoundMs && !P.backlogGrows();
}

void printPhase(const char *Label, const Phase &P) {
  Tail T = tailOf(P.LatMs);
  printf("# %-6s %7.1f req/s: %zu sent, p50 %.2f ms, p%.2f %.2f ms, late "
         "tail %.2f ms, backlog max %d%s, %zu reloads (pause p50 %.1f ms), "
         "failures %llu -> %s\n",
         Label, P.Rps, P.Sent, median(P.LatMs), T.Percentile, T.Value,
         P.lateTailMs(), P.BacklogMax, P.backlogGrows() ? " (growing)" : "",
         P.ReloadPauseMs.size(), median(P.ReloadPauseMs),
         static_cast<unsigned long long>(P.failures()),
         meets(P) ? "meets limit" : "misses limit");
}

/// Adds a phase's requests and failures to the run's tallies.
void tally(const Phase &P, Result &R) {
  R.Attempted += P.Sent;
  if (P.failures() == 0)
    return;
  R.Failed += P.failures();
  R.Problems.push_back(gg::strf(
      "at %.1f req/s: %llu non-Ok, %llu differing from the single-shot "
      "compile, %llu shed, %llu unanswered",
      P.Rps, static_cast<unsigned long long>(P.NonOk),
      static_cast<unsigned long long>(P.Mismatch),
      static_cast<unsigned long long>(P.Overloaded),
      static_cast<unsigned long long>(P.Lost)));
}

/// The ladder search: the highest rung that meets the limit. Saturation
/// bursts, one per round, offer more than the server can take and measure
/// the rate it completes requests at while its queue is full; the search
/// then walks down the ladder from the highest rung under the bursts'
/// median rate until a rung meets the limit. Anchoring on the saturated
/// rate, a median over the run, keeps one unlucky pass/fail verdict from
/// sending the search far off, as it can in a bisection.
class Ladder {
public:
  Ladder() {
    for (int K = 0; K < LadderRungs; ++K)
      Rungs.push_back(LadderFirstRps * std::pow(LadderStep, K));
  }

  /// One saturation burst at \p OfferedRps, well above capacity.
  bool saturate(Client &C, double OfferedRps, double Seconds, Result &R) {
    Phase P;
    P.Rps = OfferedRps;
    if (!C.run(P, Seconds))
      return false;
    tally(P, R);
    printPhase("sat", P);
    Saturated.push_back(completedRps(C, P, Seconds));
    return true;
  }

  /// Walks down from the highest rung under the median saturated rate
  /// until a rung meets the limit. A rung that fails with its queue full
  /// has just measured the capacity again (the machine may have slowed
  /// since the bursts), so the walk jumps below that rate at once.
  bool search(Client &C, double Seconds, Result &R) {
    Next = rungBelow(median(Saturated) * StartShare);
    printf("# saturated at %.1f req/s (median of %zu bursts); the search "
           "starts at rung %d\n",
           median(Saturated), Saturated.size(), Next);
    while (Next >= 0 && !Found) {
      Phase P;
      P.Rps = Rungs[Next];
      if (!C.run(P, Seconds))
        return false;
      tally(P, R);
      printPhase("ladder", P);
      if (meets(P))
        Found = true;
      else
        Next = std::min(Next - 1, rungBelow(completedRps(C, P, Seconds)));
    }
    return true;
  }

  double maxRps(Result &R) const {
    if (!Found) {
      R.broken("the lowest ladder rung misses the latency limit");
      return 0;
    }
    return Rungs[Next];
  }

private:
  /// Right at the saturated rate the queue cannot settle; start a little
  /// below it.
  static constexpr double StartShare = 0.95;

  /// The highest rung at or below \p Rps; -1 if there is none.
  int rungBelow(double Rps) const {
    return static_cast<int>(std::upper_bound(Rungs.begin(), Rungs.end(), Rps) -
                            Rungs.begin()) -
           1;
  }

  /// Requests of \p P completed per second after its first 30% and before
  /// sending stopped: the server's capacity when its queue stayed full.
  static double completedRps(const Client &C, const Phase &P, double Seconds) {
    auto [First, End] = P.Ids.front();
    uint64_t From = C.Requests[First].DueNs +
                    static_cast<uint64_t>(Seconds * 0.3 * 1e9);
    uint64_t To =
        C.Requests[First].DueNs + static_cast<uint64_t>(Seconds * 1e9);
    size_t Done = 0;
    for (size_t K = First; K < End; ++K)
      Done += C.Requests[K].DecodedNs >= From && C.Requests[K].DecodedNs < To;
    return static_cast<double>(Done) / (Seconds * 0.7);
  }

  std::vector<double> Rungs;
  std::vector<double> Saturated; ///< completion rate of each burst
  int Next = -1; ///< the rung the next probe tries
  bool Found = false;
};

} // namespace

void pb::runServe(const RunOptions &O, const Setup &S, Result &R) {
  std::vector<Program> Progs = drawServePrograms(O.Seed, ServePrograms);
  printf("# %s: %zu programs, %.1f KiB of source, %d workers\n",
         O.Workload.c_str(), Progs.size(), kib(Progs), Workers);
  resetPeakRss();

  // The single-shot reference each response must equal byte for byte.
  std::vector<std::string> Expected(Progs.size());
  for (size_t I = 0; I < Progs.size(); ++I) {
    gg::RequestMsg Req;
    Req.Source = Progs[I].Source;
    gg::RequestBudget NoLimits;
    gg::HandlerResult H = S.Service->compile(Req, NoLimits);
    ++R.Attempted;
    if (H.Status != gg::ResponseStatus::Ok) {
      R.fail(gg::strf("program %zu: single-shot compile failed", I));
      return;
    }
    Expected[I] = std::move(H.Payload);
  }

  std::vector<Span> Spans;
  double WalkOverhead = 0;
  if (O.Trace)
    WalkOverhead = layerReport(*S.Target, Progs, O.Seconds * 0.3, Spans, R);

  // The traced run wraps the handler to stamp entry and exit; the untraced
  // run installs the service's own handler, unwrapped.
  std::mutex HandlerM;
  std::vector<std::pair<uint64_t, HandlerTimes>> Handled;
  gg::CompileHandler Handler = S.Service->handler();
  if (O.Trace) {
    Handler = [&, Inner = Handler](const gg::RequestMsg &Req,
                                   gg::RequestBudget &B) {
      HandlerTimes T;
      T.EntryNs = nowNs();
      gg::HandlerResult Res = Inner(Req, B);
      T.ExitNs = nowNs();
      std::lock_guard<std::mutex> Lock(HandlerM);
      Handled.push_back({Req.Id, T});
      return Res;
    };
  }
  InProcessServer Srv(Handler, *S.Service);
  if (!Srv.start()) {
    R.broken("socketpair failed");
    return;
  }
  Client C(Srv, Progs, Expected);

  // Warm-up at the high rate, so both workers have run (and touched their
  // heap) before anything is reported.
  Phase Warm, Lo, Hi, Reload;
  Warm.Rps = Hi.Rps = HiRps;
  Lo.Rps = Reload.Rps = LoRps;
  Reload.ReloadEvery = ReloadEvery;
  if (!C.run(Warm, 1)) {
    R.broken("client connection failed");
    return;
  }
  tally(Warm, R);

  LoopStats L;
  Ladder Search;
  if (O.Trace) {
    if (!C.run(Lo, O.Seconds * 0.2) || !C.run(Hi, O.Seconds * 0.3) ||
        !C.run(Reload, O.Seconds * 0.2)) {
      R.broken("client connection failed");
      return;
    }
  } else {
    // The untraced run is split into rounds. Each round runs a slice of
    // the closed loop, a segment at the low rate and a saturation burst,
    // so every metric samples the whole run rather than one stretch of it.
    // The ladder probes follow. (The high rate is the traced run's.)
    const int Rounds = std::max(1, static_cast<int>(O.Seconds / RoundSeconds));
    const double Slice = O.Seconds * 0.85 / Rounds;
    for (int Round = 0; Round < Rounds; ++Round) {
      if (!closedLoop(*S.Target, Progs, Slice * 0.2, L, R))
        return;
      // Offer 2.5 times what one thread compiles in the closed loop: more
      // than two workers can serve.
      if (!C.run(Lo, Slice * 0.45) ||
          !Search.saturate(C, 2.5 * median(L.ProgsPerS) / median(L.Speed),
                           Slice * 0.35, R)) {
        R.broken("client connection failed");
        return;
      }
    }
    if (!Search.search(C, O.Seconds * 0.05, R)) {
      R.broken("client connection failed");
      return;
    }
  }
  Srv.stop();
  R.PeakRssMb = peakRssMb();
  tally(Lo, R);
  tally(Hi, R);
  tally(Reload, R);
  printPhase("lo", Lo);
  if (O.Trace) {
    printPhase("hi", Hi);
    printPhase("reload", Reload);
  }

  if (!O.Trace) {
    for (size_t I = 0; I < Progs.size(); ++I)
      if (L.Asm[I] != Expected[I])
        R.broken(gg::strf("program %zu: CompileService::compile and "
                          "GGCodeGenerator::compile disagree",
                          I));
    addCodeMetrics(Progs, L, R);
    // Serving figures are scaled by the run's machine speed: the median
    // calibration of the closed-loop slices, which interleave the serving
    // segments.
    // The low-rate latency is summarised per round and the rounds' figures
    // are reduced by their median: a stall of the shared machine fills one
    // round's tail, not the run's. The tail is printed, not reported: it
    // moved by a third between runs of one build (see README.md).
    const double Speed = median(L.Speed);
    std::vector<double> P50s, Tails;
    Tail T;
    for (auto [First, End] : Lo.Ids) {
      std::vector<double> Ms;
      for (size_t K = First; K < End; ++K)
        Ms.push_back(static_cast<double>(C.Requests[K].DecodedNs -
                                         C.Requests[K].DueNs) *
                     1e-6);
      T = tailOf(Ms);
      P50s.push_back(median(Ms));
      Tails.push_back(T.Value);
    }
    double MaxRps = Search.maxRps(R);
    printf("# latency at %.1f req/s: %zu rounds of %zu samples; raw p50 "
           "%.3f ms, raw tail (p%.2f, median over rounds) %.3f ms, scaled "
           "tail %.3f ms; raw max_rps %.3f req/s\n",
           Lo.Rps, Lo.Ids.size(), Lo.LatMs.size() / Lo.Ids.size(),
           median(P50s), T.Percentile, median(Tails), median(Tails) / Speed,
           MaxRps);
    R.add("lat_p50_ms", median(P50s) / Speed, "ms");
    R.add("max_rps", MaxRps * Speed, "req/s");
    return;
  }

  // Traced: split each request of the high-rate phase at the handler's
  // entry and exit, all on one clock.
  std::map<uint64_t, HandlerTimes> ById;
  {
    std::lock_guard<std::mutex> Lock(HandlerM);
    for (const auto &[Id, T] : Handled)
      ById[Id] = T;
  }
  std::vector<double> QueueMs, HandlerMs, ReturnMs, CodecUs;
  for (auto [First, End] : Hi.Ids)
    for (size_t K = First; K < End; ++K) {
      const Request &Q = C.Requests[K];
      auto It = ById.find(K + 1);
      if (!Q.Answered || It == ById.end())
        continue;
      const HandlerTimes &H = It->second;
      QueueMs.push_back(static_cast<double>(H.EntryNs - Q.SentNs) * 1e-6);
      HandlerMs.push_back(static_cast<double>(H.ExitNs - H.EntryNs) * 1e-6);
      ReturnMs.push_back(static_cast<double>(Q.DecodedNs - H.ExitNs) * 1e-6);
      CodecUs.push_back(static_cast<double>((Q.SentNs - Q.EncodeNs) +
                                            (Q.DecodedNs - Q.ReadNs)) *
                        1e-3);
      for (auto [Name, B, E] :
           {std::tuple{"client.encode", Q.EncodeNs, Q.SentNs},
            std::tuple{"server.queue", Q.SentNs, H.EntryNs},
            std::tuple{"server.handler", H.EntryNs, H.ExitNs},
            std::tuple{"server.return", H.ExitNs, Q.ReadNs},
            std::tuple{"client.decode", Q.ReadNs, Q.DecodedNs}}) {
        Span Sp;
        Sp.Name = Name;
        Sp.StartNs = B;
        Sp.EndNs = E;
        Sp.Id = K + 1;
        Spans.push_back(Sp);
      }
    }
  R.add("serve.queue_ms.p50", median(QueueMs), "ms");
  R.add("serve.queue_ms.tail", tailOf(QueueMs).Value, "ms");
  R.add("serve.handler_ms.p50", median(HandlerMs), "ms");
  R.add("serve.handler_ms.tail", tailOf(HandlerMs).Value, "ms");
  R.add("serve.return_ms.p50", median(ReturnMs), "ms");
  R.add("serve.codec_us", median(CodecUs), "us");
  R.add("serve.overloaded", static_cast<double>(Hi.Overloaded), "count");
  R.add("serve.backlog_max", Hi.BacklogMax, "count");
  R.add("serve.reload_pause_ms", median(Reload.ReloadPauseMs), "ms");
  R.add("serve.lat_tail_ms.lo", Lo.tailMs(), "ms");
  R.add("serve.lat_p50_ms.reload", median(Reload.LatMs), "ms");
  R.add("serve.lat_tail_ms.reload", Reload.tailMs(), "ms");
  R.add("serve.lat_p50_ms.hi", median(Hi.LatMs), "ms");
  R.add("serve.lat_tail_ms.hi", Hi.tailMs(), "ms");
  R.add("loadgen.late_ms.tail", Hi.lateTailMs(), "ms");
  // The traced serving path adds one wrapped-handler record per request:
  // its measured cost over the median handler time. The walk's overhead is
  // measured directly; report the larger.
  double ServeOverhead = spanCostSeconds() / (median(HandlerMs) * 1e-3);
  R.add("trace.overhead_frac", std::max(WalkOverhead, ServeOverhead),
        "ratio");
  if (!O.SpansOut.empty() && !writeSpans(O.SpansOut, Spans))
    fprintf(stderr, "perfbench: cannot write %s\n", O.SpansOut.c_str());
}
