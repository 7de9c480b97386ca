#include "perfbench/src/probes.h"

#include <algorithm>
#include <functional>

#include "src/common/metrics.h"
#include "src/common/serialize.h"
#include "src/common/trace.h"
#include "src/la/backend.h"
#include "src/net/frame.h"
#include "src/net/loopback.h"
#include "src/storage/spill.h"

namespace perfbench {
namespace {

using sac::Result;
using sac::Status;
using sac::Stopwatch;
using sac::la::Tile;
using sac::runtime::Value;
using sac::runtime::ValueVec;

constexpr int kMinReps = 3;

/// Repeats `step` (which returns the work it did, or an error) for at
/// least `budget_s` seconds and kMinReps repetitions, under one
/// "replay.<name>" span.
Result<Replay> Repeat(sac::Sac& ctx, const std::string& name, double budget_s,
                      const std::function<Result<double>()>& step) {
  sac::trace::ScopedSpan span(&ctx.tracer(), "replay." + name, "bench");
  Replay r;
  Stopwatch sw;
  for (int reps = 0; reps < kMinReps || sw.ElapsedMillis() < budget_s * 1e3;
       ++reps) {
    SAC_ASSIGN_OR_RETURN(double work, step());
    r.work += work;
  }
  r.seconds = sw.ElapsedMillis() / 1e3;
  return r;
}

/// Median wall time in ms of `fn` over a `budget_s` loop, under one span.
Result<double> MedianMs(sac::Sac& ctx, const std::string& name,
                        double budget_s, const std::function<Status()>& fn) {
  sac::trace::ScopedSpan span(&ctx.tracer(), name, "bench");
  std::vector<double> ms;
  Stopwatch total;
  while (ms.size() < kMinReps || total.ElapsedMillis() < budget_s * 1e3) {
    Stopwatch sw;
    SAC_RETURN_NOT_OK(fn());
    ms.push_back(sw.ElapsedMillis());
  }
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

std::vector<uint8_t> SerializeAll(const ValueVec& rows) {
  sac::ByteWriter w;
  for (const Value& v : rows) v.Serialize(&w);
  return w.TakeBuffer();
}

}  // namespace

Result<ProbeResults> RunProbes(sac::Sac& ctx, const ProbeInputs& in,
                               double budget_s,
                               const std::string& scratch_dir) {
  if (in.tile_records.size() < 2) {
    return Status::InvalidArgument("probes need at least two tile records");
  }
  ProbeResults out;
  const int kLoops = 9 + 2 * static_cast<int>(in.query_texts.size());
  const double each = budget_s / kLoops;

  // Partition histogram of the tile keys under the engine's hash rule.
  const int partitions = ctx.engine().config().default_parallelism;
  out.partition_records.assign(partitions, 0);
  std::vector<ValueVec> parts(partitions);
  for (const Value& row : in.tile_records) {
    const size_t p = row.At(0).Hash() % partitions;
    ++out.partition_records[p];
    parts[p].push_back(row);
  }
  const ValueVec& bucket = *std::max_element(
      parts.begin(), parts.end(),
      [](const ValueVec& a, const ValueVec& b) { return a.size() < b.size(); });

  auto replay = [&](const char* name, Replay* into,
                    const std::function<Result<double>()>& step) -> Status {
    SAC_ASSIGN_OR_RETURN(*into, Repeat(ctx, name, each, step));
    return Status::OK();
  };

  // la: the engine's backend on the workload's first two tiles.
  const sac::la::KernelBackend* be = ctx.engine().kernel_backend();
  const Tile& a = in.tile_records[0].At(1).AsTile();
  const Tile& b = in.tile_records[1].At(1).AsTile();
  Tile acc(a.rows(), b.cols());
  Tile sum(a.rows(), a.cols());
  SAC_RETURN_NOT_OK(replay("la.gemm", &out.gemm, [&]() -> Result<double> {
    be->GemmAccum(a, b, &acc);
    return static_cast<double>(sac::la::GemmFlops(a, b));
  }));
  SAC_RETURN_NOT_OK(replay("la.add", &out.add, [&]() -> Result<double> {
    be->Add(a, b, &sum);
    be->Axpby(0.5, a, 2.0, b, &sum);
    return 2.0 * 3 * a.size() * sizeof(double);  // 2 reads + 1 write each
  }));

  // runtime: the Value codec on every tile record.
  const std::vector<uint8_t> encoded = SerializeAll(in.tile_records);
  SAC_RETURN_NOT_OK(
      replay("runtime.serialize", &out.serialize, [&]() -> Result<double> {
        return static_cast<double>(SerializeAll(in.tile_records).size());
      }));
  SAC_RETURN_NOT_OK(
      replay("runtime.deserialize", &out.deserialize, [&]() -> Result<double> {
        sac::ByteReader r(encoded);
        for (size_t i = 0; i < in.tile_records.size(); ++i) {
          SAC_RETURN_NOT_OK(Value::Deserialize(&r).status());
        }
        return static_cast<double>(encoded.size());
      }));

  // net: frames and loopback round trips carrying one bucket.
  sac::net::Frame frame;
  frame.type = 1;
  frame.payload = SerializeAll(bucket);
  const double bucket_bytes = static_cast<double>(frame.payload.size());
  std::vector<uint8_t> wire;
  sac::net::EncodeFrame(frame, &wire);
  SAC_RETURN_NOT_OK(
      replay("net.encode_frame", &out.frame_encode, [&]() -> Result<double> {
        std::vector<uint8_t> buf;
        sac::net::EncodeFrame(frame, &buf);
        return bucket_bytes;
      }));
  SAC_RETURN_NOT_OK(
      replay("net.decode_frame", &out.frame_decode, [&]() -> Result<double> {
        SAC_RETURN_NOT_OK(sac::net::DecodeFrame(wire).status());
        return bucket_bytes;
      }));
  sac::net::LoopbackTransport loopback;
  loopback.AddPeer([](const sac::net::Frame& req) {
    sac::net::Frame ack;
    ack.type = req.type + 1;
    return ack;
  });
  SAC_RETURN_NOT_OK(
      replay("net.loopback_call", &out.loopback, [&]() -> Result<double> {
        const uint64_t before =
            loopback.bytes_sent() + loopback.bytes_received();
        SAC_RETURN_NOT_OK(loopback.Call(0, frame).status());
        return static_cast<double>(loopback.bytes_sent() +
                                   loopback.bytes_received() - before);
      }));

  // storage: spill files of one bucket.
  SAC_RETURN_NOT_OK(sac::storage::EnsureSpillDir(scratch_dir));
  const std::string path = scratch_dir + "/probe.spill";
  SAC_RETURN_NOT_OK(
      replay("storage.write_spill", &out.spill_write, [&]() -> Result<double> {
        SAC_ASSIGN_OR_RETURN(uint64_t bytes,
                             sac::storage::WriteSpill(path, bucket));
        return static_cast<double>(bytes);
      }));
  SAC_RETURN_NOT_OK(
      replay("storage.read_spill", &out.spill_read, [&]() -> Result<double> {
        uint64_t bytes = 0;
        SAC_RETURN_NOT_OK(sac::storage::ReadSpill(path, &bytes).status());
        return static_cast<double>(bytes);
      }));
  sac::storage::RemoveSpill(path);

  // planner / analysis: fresh compiles and analyses of each query text.
  for (const std::string& text : in.query_texts) {
    SAC_ASSIGN_OR_RETURN(
        double compile_ms,
        MedianMs(ctx, "replay.planner.compile", each,
                 [&] { return ctx.Compile(text).status(); }));
    SAC_ASSIGN_OR_RETURN(
        double analyze_ms,
        MedianMs(ctx, "replay.analysis.analyze", each,
                 [&] { return ctx.Analyze(text).status(); }));
    out.compile_ms.push_back(compile_ms);
    out.analyze_ms.push_back(analyze_ms);
  }
  return out;
}

}  // namespace perfbench
