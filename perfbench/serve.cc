// The serve workload: a closed loop of two client connections
// (svc::Client::Call) to an in-process svc::Server + svc::Service with
// threads=2 and the memo on (its default). 80% of requests come from a hot
// set of 64 pre-generated requests, which hit the memo after their first
// visit; 20% are fresh random (V, Q) pairs that are never repeated, so they
// miss, install and push the 8192-entry memo into evictions. The op mix is
// determinacy 70%, containment 20%, chase 5% and batch-of-4 5%.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <iostream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "chase/chain.h"
#include "core/determinacy.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "gen/random_query.h"
#include "memo/memo.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"

namespace perfbench {
namespace {

namespace svc = vqdr::svc;
using vqdr::ConjunctiveQuery;
using vqdr::Schema;

constexpr int kClients = 2;
constexpr int kServiceThreads = 2;
constexpr int kHotRequests = 64;
constexpr int kHotPercent = 80;
constexpr int kBatchItems = 4;
// Each client's request sequence is sized for this many requests per second
// of the run; a faster host wraps around (and reports it on stderr).
constexpr double kRequestsPerClientSecond = 20000;
constexpr std::uint64_t kCallTimeoutMs = 30000;
// One in this many requests keeps its response for the byte-for-byte check.
constexpr std::uint64_t kSampleEvery = 512;
constexpr std::size_t kMaxSamples = 64;

enum class Op { kDeterminacy, kContainment, kChase, kBatch };

Op PickOp(vqdr::Rng& rng) {
  std::uint64_t r = rng.Below(100);
  if (r < 70) return Op::kDeterminacy;
  if (r < 90) return Op::kContainment;
  if (r < 95) return Op::kChase;
  return Op::kBatch;
}

vqdr::RandomCqOptions CqOptions(int max_atoms = 3) {
  vqdr::RandomCqOptions o;
  o.schema = Schema{{"E", 2}};
  o.min_atoms = 1;
  o.max_atoms = max_atoms;
  o.head_arity = 1;
  return o;
}

std::string Quoted(const std::string& s) {
  std::string out;
  svc::AppendJson(s, &out);
  return out;
}

// "views":[...],"query":"..." for a random pair.
std::string PairFields(vqdr::Rng& rng, int max_atoms = 3) {
  vqdr::ViewSet views = vqdr::RandomCqViews(rng, CqOptions(max_atoms), 2);
  ConjunctiveQuery q = vqdr::RandomCq(rng, CqOptions(max_atoms));
  std::string out = "\"views\":[";
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (i > 0) out += ",";
    out += Quoted(views.views()[i].query.AsCq().ToString());
  }
  out += "],\"query\":" + Quoted(q.ToString());
  return out;
}

std::string MakeLine(vqdr::Rng& rng, Op op) {
  switch (op) {
    case Op::kDeterminacy:
      return "{\"op\":\"determinacy\"," + PairFields(rng) + "}";
    case Op::kContainment:
      return "{\"op\":\"containment\",\"q1\":" +
             Quoted(vqdr::RandomCq(rng, CqOptions()).ToString()) +
             ",\"q2\":" +
             Quoted(vqdr::RandomCq(rng, CqOptions(), "P").ToString()) + "}";
    case Op::kChase:
      // At most two atoms per body: one chase level over three-atom bodies
      // can take seconds (a V-inverse blow-up), which would park a worker
      // and turn this service workload into a chase benchmark.
      return "{\"op\":\"chase\"," + PairFields(rng, 2) + ",\"levels\":1}";
    case Op::kBatch: {
      std::string out = "{\"op\":\"batch\",\"items\":[";
      for (int i = 0; i < kBatchItems; ++i) {
        if (i > 0) out += ",";
        out += "{" + PairFields(rng) + "}";
      }
      return out + "]}";
    }
  }
  return {};
}

// Every request line the run can send, generated before anything is timed.
struct Inputs {
  std::vector<std::string> lines;  // [0, kHotRequests) is the hot set
  std::vector<Op> ops;             // op of each line
  std::vector<std::vector<std::uint32_t>> sequence;  // per client
  std::vector<std::string> probe_pairs;  // fresh pairs for the memo probe
};

Inputs Generate(const Args& args) {
  vqdr::Rng rng(args.seed);
  Inputs in;
  std::unordered_set<std::string> seen;
  auto add = [&](Op op) {
    for (;;) {
      std::string line = MakeLine(rng, op);
      if (seen.insert(line).second) {
        in.lines.push_back(std::move(line));
        in.ops.push_back(op);
        return static_cast<std::uint32_t>(in.lines.size() - 1);
      }
    }
  };
  for (int i = 0; i < kHotRequests; ++i) add(PickOp(rng));
  std::size_t length = static_cast<std::size_t>(
      (args.seconds + 1) * kRequestsPerClientSecond);
  in.sequence.resize(kClients);
  for (auto& seq : in.sequence) {
    seq.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      seq.push_back(rng.Below(100) < kHotPercent
                        ? static_cast<std::uint32_t>(rng.Below(kHotRequests))
                        : add(PickOp(rng)));
    }
  }
  while (in.probe_pairs.size() < 64) {
    std::string line = MakeLine(rng, Op::kDeterminacy);
    if (seen.insert(line).second) in.probe_pairs.push_back(std::move(line));
  }
  return in;
}

// The service, its socket server and the client connections: the set-up.
struct Deployment {
  std::unique_ptr<svc::Service> service;
  std::unique_ptr<svc::Server> server;
  std::vector<svc::Client> clients;

  ~Deployment() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
    service.reset();
  }
};

std::string SocketPath() {
  const char* dir = std::getenv("PERFBENCH_SOCKET_DIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
         "/perfbench-" + std::to_string(::getpid()) + ".sock";
}

std::unique_ptr<Deployment> Deploy() {
  auto d = std::make_unique<Deployment>();
  svc::ServiceOptions options;
  options.threads = kServiceThreads;
  d->service = std::make_unique<svc::Service>(options);
  svc::ServerOptions server_options;
  server_options.socket_path = SocketPath();
  d->server = std::make_unique<svc::Server>(*d->service, server_options);
  vqdr::Status started = d->server->Start();
  if (!started.ok()) {
    std::cerr << "perfbench: server start failed: " << started.message()
              << "\n";
    std::exit(1);
  }
  for (int i = 0; i < kClients; ++i) {
    auto client = svc::Client::Connect(server_options.socket_path);
    if (!client.ok()) {
      std::cerr << "perfbench: connect failed: " << client.status().message()
                << "\n";
      std::exit(1);
    }
    d->clients.push_back(std::move(client).value());
  }
  auto health = d->clients[0].Call("{\"op\":\"health\"}", kCallTimeoutMs);
  if (!health.ok()) {
    std::cerr << "perfbench: health check failed\n";
    std::exit(1);
  }
  return d;
}

bool IsComplete(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos &&
         response.find("\"outcome\":\"COMPLETE\"") != std::string::npos;
}

// The "result" object of a served response (it sits between the result key
// and the trailing elapsed_us field).
std::string ResultOf(const std::string& response) {
  std::size_t begin = response.find("\"result\":");
  std::size_t end = response.rfind(",\"elapsed_us\":");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return {};
  }
  begin += 9;
  return response.substr(begin, end - begin);
}

// What one client connection saw during a closed-loop phase.
struct ClientLog {
  std::vector<double> done_s;  // completion time since the phase started
  std::vector<double> latency_us;
  std::uint64_t not_complete = 0;
  std::uint64_t degraded = 0;
  std::uint64_t wrapped = 0;
  std::vector<std::pair<std::uint32_t, std::string>> sampled;
};

struct LoopResult {
  std::vector<ClientLog> logs;
  double window_s = 0;
  std::vector<double> window_cpu_us;  // process CPU time per window
  double heap_mb = 0;                 // heap in use when the loop ended
};

// Windows of a tenth of a second (a fiftieth of a shorter loop).
double WindowSeconds(double seconds) { return std::min(0.1, seconds / 50); }

// Runs the closed loop on every connection for `seconds`, continuing each
// client's sequence from `cursor`. With non-null `traces`, each call sits
// in an svc.call span of its client's own trace.
LoopResult ClosedLoop(Deployment& d, const Inputs& in, double seconds,
                      std::vector<std::size_t>& cursor, std::uint64_t seed,
                      std::vector<Trace>* traces) {
  LoopResult out;
  out.logs.resize(kClients);
  // The logs are allocated before the loop starts, so the heap in use at
  // its end does not step with the throughput.
  std::size_t capacity =
      static_cast<std::size_t>(seconds * kRequestsPerClientSecond);
  for (ClientLog& log : out.logs) {
    log.done_s.reserve(capacity);
    log.latency_us.reserve(capacity);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  Clock::time_point start;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ClientLog& log = out.logs[c];
      const std::vector<std::uint32_t>& seq = in.sequence[c];
      std::size_t& i = cursor[c];
      Trace* trace = traces != nullptr ? &(*traces)[c] : nullptr;
      for (;;) {
        Clock::time_point t0 = Clock::now();
        double since = std::chrono::duration<double>(t0 - start).count();
        if (since >= seconds) break;
        if (i >= seq.size()) {
          ++log.wrapped;
          i = 0;
        }
        std::uint32_t line = seq[i++];
        int span = trace != nullptr ? trace->Open("svc.call") : -1;
        auto response = d.clients[c].Call(in.lines[line], kCallTimeoutMs);
        if (trace != nullptr) trace->Close(span);
        Clock::time_point t1 = Clock::now();
        log.latency_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        log.done_s.push_back(std::chrono::duration<double>(t1 - start).count());
        if (!response.ok() || !IsComplete(*response)) {
          ++log.not_complete;
          if (response.ok() && response->find("\"ok\":true") !=
                                   std::string::npos) {
            ++log.degraded;
          }
          continue;
        }
        if ((i * 0x9E3779B97F4A7C15ull + seed) % kSampleEvery == 0 &&
            log.sampled.size() < kMaxSamples) {
          log.sampled.push_back({line, std::move(response).value()});
        }
      }
    });
  }
  out.window_s = WindowSeconds(seconds);
  double cpu = ProcessCpuMicros();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (int w = 1; w * out.window_s <= seconds + 1e-9; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(w * out.window_s)));
    double now = ProcessCpuMicros();
    out.window_cpu_us.push_back(now - cpu);
    cpu = now;
  }
  for (std::thread& t : threads) t.join();
  out.heap_mb = HeapInUseMb();
  return out;
}

// Per-window figures, reported from the quietest windows. The neighbours'
// load stalls this machine's CPUs for milliseconds at a time (a stalled CPU
// holds up every request handed to a thread on it), in bursts that cut a
// window's throughput by up to 4x; host-speed normalization cannot undo a
// stall. Throughput is the 90th percentile of the windows, and latency and
// CPU per request the 10th percentile of theirs: what the program does
// when the host leaves it alone for a tenth of a second. The tail is the
// 90th percentile of request latency: a window's 99th percentile is set by
// the stalls, and moved by 2x between runs of the same code.
EndToEnd Summarize(const LoopResult& r) {
  std::size_t windows = r.window_cpu_us.size();
  std::vector<std::vector<double>> per(windows);
  for (const ClientLog& log : r.logs) {
    for (std::size_t k = 0; k < log.done_s.size(); ++k) {
      std::size_t w = static_cast<std::size_t>(log.done_s[k] / r.window_s);
      if (w < windows) per[w].push_back(log.latency_us[k]);
    }
  }
  std::vector<double> rps, p50, p90, cpu;
  for (std::size_t w = 0; w < windows; ++w) {
    if (per[w].empty()) continue;
    double n = static_cast<double>(per[w].size());
    rps.push_back(n / r.window_s);
    p50.push_back(Median(per[w]));
    p90.push_back(Quantile(per[w], 0.9));
    cpu.push_back(r.window_cpu_us[w] / n);
  }
  EndToEnd e;
  e.ops_per_s = Quantile(rps, 0.9);
  e.p50_us = Quantile(p50, 0.1);
  e.tail_us = Quantile(p90, 0.1);
  e.cpu_us_per_op = Quantile(cpu, 0.1);
  e.heap_mb = r.heap_mb;
  return e;
}

// Timings of the parts of one request outside the service's own path.
struct Parts {
  double scenario_us = 0;
  double engine_us = 0;
  double serialize_us = 0;
};

// Runs what the service's handler runs for `req` as direct library calls —
// scenario (parsing the CQ texts), engine, result serialization — and
// returns the result object the service would send, or nullopt on an
// unparseable request or an incomplete engine outcome. With a non-null
// `trace`, each part runs in an svc.scenario / svc.engine / svc.serialize
// span and its time is added to `parts`.
std::optional<std::string> Direct(const svc::Request& req, vqdr::memo::Use use,
                                  Trace* trace, Parts* parts) {
  vqdr::memo::MemoOptions memo;
  memo.use = use;
  Parts local;
  Parts& p = parts != nullptr ? *parts : local;
  auto scenario = [&](auto&& fn) {
    p.scenario_us += Timed(trace, "svc.scenario", fn);
  };
  auto engine = [&](auto&& fn) {
    p.engine_us += Timed(trace, "svc.engine", fn);
  };
  auto serialize = [&](auto&& fn) {
    p.serialize_us += Timed(trace, "svc.serialize", fn);
  };
  auto determinacy = [&](const std::vector<std::string>& views,
                         const std::string& query, std::string* json) {
    svc::Scenario sc;
    bool ok = false;
    scenario([&] {
      ok = svc::BuildScenario("", views, query, &sc).ok() &&
           sc.query.has_value();
    });
    if (!ok) return false;
    vqdr::UnrestrictedDeterminacyResult r;
    engine([&] {
      r = vqdr::DecideUnrestrictedDeterminacy(sc.views, *sc.query, nullptr,
                                              memo);
    });
    serialize([&] { *json = svc::DeterminacyResultJson(r, sc.pool); });
    return vqdr::guard::IsComplete(r.outcome);
  };

  std::string json;
  if (req.op == "determinacy") {
    if (!determinacy(req.views, req.query, &json)) return std::nullopt;
  } else if (req.op == "containment") {
    vqdr::NamePool pool;
    std::optional<ConjunctiveQuery> q1, q2;
    scenario([&] {
      auto a = vqdr::ParseCq(req.q1, pool);
      auto b = vqdr::ParseCq(req.q2, pool);
      if (a.ok() && b.ok()) {
        q1 = std::move(a).value();
        q2 = std::move(b).value();
      }
    });
    if (!q1.has_value()) return std::nullopt;
    vqdr::CqContainmentOptions options;
    options.memo = memo;
    vqdr::ContainmentResult r;
    engine([&] { r = vqdr::CqContainedInGoverned(*q1, *q2, options); });
    serialize([&] { json = svc::ContainmentResultJson(r); });
    if (!vqdr::guard::IsComplete(r.outcome)) return std::nullopt;
  } else if (req.op == "chase") {
    svc::Scenario sc;
    bool ok = false;
    scenario([&] {
      ok = svc::BuildScenario(req.schema, req.views, req.query, &sc).ok() &&
           sc.query.has_value();
    });
    if (!ok) return std::nullopt;
    vqdr::ChaseChainOptions options;
    options.levels = req.levels;
    options.memo = memo;
    vqdr::ChaseChain chain;
    engine([&] {
      vqdr::ValueFactory factory(sc.pool.MaxId());
      chain = vqdr::BuildChaseChain(sc.views, *sc.query, options, factory);
    });
    serialize([&] { json = svc::ChaseResultJson(chain, sc.pool); });
    if (!vqdr::guard::IsComplete(chain.outcome)) return std::nullopt;
  } else if (req.op == "batch") {
    // The batch handler's wrapper: per item the outcome, then the item's
    // determinacy fields.
    json = "{\"items\":[";
    for (std::size_t i = 0; i < req.items.size(); ++i) {
      std::string item;
      if (!determinacy(req.items[i].views, req.items[i].query, &item)) {
        return std::nullopt;
      }
      serialize([&] {
        if (i > 0) json += ",";
        json += "{\"outcome\":\"COMPLETE\",";
        json.append(item, 1, item.size() - 1);
      });
    }
    json += "],\"items_completed\":" + std::to_string(req.items.size()) + "}";
  } else {
    return std::nullopt;
  }
  return json;
}

// The byte-for-byte check: each sampled served result against a direct,
// uncached engine call serialized through the same svc builder.
void CheckSamples(const Inputs& in, const LoopResult& loop, RunResult& res) {
  vqdr::memo::ScopedEnable off(false);
  for (const ClientLog& log : loop.logs) {
    for (const auto& [line, response] : log.sampled) {
      auto req = svc::ParseRequest(in.lines[line]);
      std::optional<std::string> direct =
          req.ok() ? Direct(*req, vqdr::memo::Use::kOff, nullptr, nullptr)
                   : std::nullopt;
      res.Check(direct.has_value() && *direct == ResultOf(response),
                "served result differs from the direct engine call for " +
                    in.lines[line]);
    }
  }
}

void CountChecks(const LoopResult& loop, RunResult& res) {
  for (const ClientLog& log : loop.logs) {
    res.attempted += log.latency_us.size();
    res.failed += log.not_complete;
    if (log.not_complete > 0) {
      std::cerr << "perfbench: " << log.not_complete
                << " responses were not ok/COMPLETE\n";
    }
    if (log.wrapped > 0) {
      std::cerr << "perfbench: a client sequence wrapped around; fresh "
                   "requests repeated\n";
    }
  }
}

double MeanLatency(const LoopResult& r) {
  double sum = 0, n = 0;
  for (const ClientLog& log : r.logs) {
    sum += Sum(log.latency_us);
    n += static_cast<double>(log.latency_us.size());
  }
  return n > 0 ? sum / n : 0;
}

// The traced decomposition of the request path, replaying client 0's lines
// on one connection. Each line is first handled once untimed, so the memo
// state is the same for the socket call, the in-process HandleLine and the
// direct parts that follow it.
void ProbeRequestPath(Deployment& d, const Inputs& in, double seconds,
                      std::map<std::string, double>& layers, Trace& trace,
                      RunResult& res) {
  std::vector<double> call, handle, transport, parse, scenario, engine,
      serialize, dispatch;
  Clock::time_point start = Clock::now();
  const std::vector<std::uint32_t>& seq = in.sequence[0];
  for (std::size_t i = 0; i < seq.size() && SecondsSince(start) < seconds;
       ++i) {
    const std::string& line = in.lines[seq[i]];
    (void)d.service->HandleLine(line);
    std::string served, handled;
    double call_us = Timed(&trace, "svc.call", [&] {
      auto r = d.clients[0].Call(line, kCallTimeoutMs);
      served = r.ok() ? *r : std::string();
    });
    double handle_us = Timed(&trace, "svc.handle",
                             [&] { handled = d.service->HandleLine(line); });
    res.Check(IsComplete(served) && IsComplete(handled),
              "replayed request not ok/COMPLETE: " + line);
    std::optional<svc::Request> req;
    double parse_us = Timed(&trace, "svc.parse", [&] {
      auto r = svc::ParseRequest(line);
      if (r.ok()) req = std::move(r).value();
    });
    if (!req.has_value()) continue;
    Parts parts;
    std::optional<std::string> json =
        Direct(*req, vqdr::memo::Use::kDefault, &trace, &parts);
    if (!json.has_value()) continue;
    // The response envelope the service serializes around the result.
    parts.serialize_us += Timed(&trace, "svc.serialize", [&] {
      svc::Response response;
      response.has_outcome = true;
      response.result_json = std::move(*json);
      response.has_elapsed = true;
      response.elapsed_us = static_cast<std::uint64_t>(handle_us);
      (void)svc::SerializeResponse(response);
    });

    call.push_back(call_us);
    handle.push_back(handle_us);
    transport.push_back(call_us - handle_us);
    parse.push_back(parse_us);
    scenario.push_back(parts.scenario_us);
    engine.push_back(parts.engine_us);
    serialize.push_back(parts.serialize_us);
    dispatch.push_back(handle_us - parse_us - parts.scenario_us -
                       parts.engine_us - parts.serialize_us);
  }
  layers["svc.call_us"] = Median(call);
  layers["svc.handle_us"] = Median(handle);
  layers["svc.transport_us"] = Median(transport);
  layers["svc.parse_us"] = Median(parse);
  layers["svc.scenario_us"] = Median(scenario);
  layers["svc.engine_us"] = Median(engine);
  layers["svc.serialize_us"] = Median(serialize);
  layers["svc.dispatch_us"] = Median(dispatch);
  // parse + scenario + engine + serialize + dispatch = handle, and
  // handle + transport = call, each up to the skew of adding medians.
  double parts_sum = Median(parse) + Median(scenario) + Median(engine) +
                     Median(serialize) + Median(dispatch);
  double err =
      std::max(DeviationPct(parts_sum, Median(handle)),
               DeviationPct(Median(handle) + Median(transport), Median(call)));
  layers["svc.reconcile_err_pct"] = err;
  if (err > kReconcileTolerancePct) {
    std::cerr << "perfbench: svc layers reconcile only within " << err
              << "% (tolerance " << kReconcileTolerancePct << "%)\n";
  }
}

// par: a batch-of-4 request through the service against its four items
// called directly, memo off on both sides so each does the engine work.
void ProbeBatch(Deployment& d, const Inputs& in,
                std::map<std::string, double>& layers, Trace& trace) {
  vqdr::memo::ScopedEnable off(false);
  std::vector<double> batch_us, speedup;
  for (std::size_t l = 0; l < in.lines.size() && batch_us.size() < 32; ++l) {
    if (in.ops[l] != Op::kBatch) continue;
    auto req = svc::ParseRequest(in.lines[l]);
    if (!req.ok()) continue;
    double us = Timed(&trace, "par.batch",
                      [&] { (void)d.service->HandleLine(in.lines[l]); });
    double items_us = 0;
    for (const svc::BatchItem& item : req->items) {
      svc::Request one;
      one.op = "determinacy";
      one.views = item.views;
      one.query = item.query;
      items_us += Timed(&trace, "par.item", [&] {
        (void)Direct(one, vqdr::memo::Use::kOff, nullptr, nullptr);
      });
    }
    batch_us.push_back(us);
    speedup.push_back(items_us / us);
  }
  layers["par.batch_us"] = Median(batch_us);
  layers["par.batch_speedup"] = Median(speedup);
}

// memo: direct decisions on cached hot keys, and on fresh keys with the
// memo off and on (a miss that installs).
void ProbeMemo(const Inputs& in, std::map<std::string, double>& layers,
               Trace& trace) {
  auto decide = [&](const std::string& line, vqdr::memo::Use use) {
    auto req = svc::ParseRequest(line);
    svc::Scenario sc;
    if (!req.ok() ||
        !svc::BuildScenario("", req->views, req->query, &sc).ok()) {
      return 0.0;
    }
    vqdr::memo::MemoOptions memo;
    memo.use = use;
    return Timed(&trace, "memo.decide", [&] {
      (void)vqdr::DecideUnrestrictedDeterminacy(sc.views, *sc.query, nullptr,
                                                memo);
    });
  };
  std::vector<double> hit, miss, write;
  for (int l = 0; l < kHotRequests; ++l) {
    if (in.ops[l] == Op::kDeterminacy) {
      hit.push_back(decide(in.lines[l], vqdr::memo::Use::kOn));
    }
  }
  // The order alternates so that neither side always runs on warm caches;
  // a memo-off decision neither reads nor installs, so the memo-on one is
  // a miss either way.
  for (std::size_t i = 0; i < in.probe_pairs.size(); ++i) {
    const std::string& line = in.probe_pairs[i];
    double off = 0, on = 0;
    if (i % 2 == 0) {
      off = decide(line, vqdr::memo::Use::kOff);
      on = decide(line, vqdr::memo::Use::kOn);
    } else {
      on = decide(line, vqdr::memo::Use::kOn);
      off = decide(line, vqdr::memo::Use::kOff);
    }
    miss.push_back(on);
    write.push_back(on - off);
  }
  layers["memo.hit_us"] = Median(hit);
  layers["memo.miss_us"] = Median(miss);
  layers["memo.write_us"] = Median(write);
}

// cq: containment on the workload's containment pairs, memo off.
void ProbeContainment(const Inputs& in, std::map<std::string, double>& layers,
                      Trace& trace) {
  std::vector<double> us;
  for (std::size_t l = 0; l < in.lines.size() && us.size() < 256; ++l) {
    if (in.ops[l] != Op::kContainment) continue;
    auto req = svc::ParseRequest(in.lines[l]);
    vqdr::NamePool pool;
    if (!req.ok()) continue;
    auto q1 = vqdr::ParseCq(req->q1, pool);
    auto q2 = vqdr::ParseCq(req->q2, pool);
    if (!q1.ok() || !q2.ok()) continue;
    vqdr::CqContainmentOptions options;
    options.memo.use = vqdr::memo::Use::kOff;
    us.push_back(Timed(&trace, "cq.containment", [&] {
      (void)vqdr::CqContainedIn(*q1, *q2, options);
    }));
  }
  layers["cq.containment_us"] = Median(us);
}

}  // namespace

RunResult RunServe(const Args& args) {
  const Inputs in = Generate(args);

  std::unique_ptr<Deployment> d;
  double setup_s =
      TimeSetup(nullptr, [&] { d.reset(); }, [&] { d = Deploy(); });

  RunResult result;
  std::vector<std::size_t> cursor(kClients, 0);
  // Warm-up: the hot set reaches the memo and lazy state settles.
  LoopResult warm = ClosedLoop(*d, in, 0.5, cursor, args.seed, nullptr);
  CountChecks(warm, result);

  if (!args.trace) {
    LoopResult loop = ClosedLoop(*d, in, args.seconds, cursor, args.seed,
                                 nullptr);
    CountChecks(loop, result);
    CheckSamples(in, loop, result);
    AddEndToEnd(Summarize(loop), setup_s, &result);
    return result;
  }

  std::map<std::string, double> layers;
  double phase = args.seconds * kTracedLoopShare;
  vqdr::memo::StatsSnapshot memo_before = vqdr::memo::GlobalStats();
  CounterDelta counters;
  LoopResult untraced = ClosedLoop(*d, in, phase, cursor, args.seed, nullptr);
  counters.Finish();
  vqdr::memo::StatsSnapshot memo_delta =
      vqdr::memo::GlobalStats().Delta(memo_before);
  std::vector<Trace> traces(kClients);
  LoopResult traced = ClosedLoop(*d, in, phase, cursor, args.seed, &traces);
  for (const LoopResult* loop : {&untraced, &traced}) {
    CountChecks(*loop, result);
    CheckSamples(in, *loop, result);
    for (const ClientLog& log : loop->logs) {
      layers["svc.degraded"] += static_cast<double>(log.degraded);
    }
  }
  double mean_untraced = MeanLatency(untraced);
  layers["obs.trace_overhead_pct"] =
      mean_untraced > 0 ? 100.0 * (MeanLatency(traced) / mean_untraced - 1)
                        : 0;
  layers["memo.hits"] = static_cast<double>(memo_delta.hits);
  layers["memo.misses"] = static_cast<double>(memo_delta.misses);
  layers["memo.installs"] = static_cast<double>(memo_delta.installs);
  layers["memo.evictions"] = static_cast<double>(memo_delta.evictions);
  std::uint64_t probes = memo_delta.hits + memo_delta.misses;
  layers["memo.hit_rate"] =
      probes > 0 ? static_cast<double>(memo_delta.hits) / probes : 0;
  double attempts = static_cast<double>(counters.Get("cq.hom.attempts"));
  double matches = static_cast<double>(counters.Get("cq.hom.matches"));
  layers["cq.hom.attempts"] = attempts;
  layers["cq.hom.matches"] = matches;
  layers["cq.hom.attempts_per_match"] = matches > 0 ? attempts / matches : 0;

  Trace trace;
  ProbeRequestPath(*d, in, phase, layers, trace, result);
  ProbeBatch(*d, in, layers, trace);
  ProbeMemo(in, layers, trace);
  ProbeContainment(in, layers, trace);
  svc::ServiceStats stats = d->service->stats();
  layers["svc.rejected"] =
      static_cast<double>(stats.rejected_overloaded + stats.rejected_draining);
  layers["error_rate"] = static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted);
  AddPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
