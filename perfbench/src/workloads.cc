#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "src/api/algorithms.h"
#include "src/baseline/block_matrix.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/la/kernels.h"

namespace perfbench {
namespace {

using sac::Result;
using sac::Sac;
using sac::Status;
using sac::Stopwatch;
using sac::la::Tile;
using sac::storage::TiledMatrix;

/// An independent input seed for stream `stream` of workload seed `seed`.
uint64_t Derive(uint64_t seed, uint64_t stream) {
  sac::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.NextU64();
}

/// The cluster every workload runs on: 4 executors of 1 core (4 pool
/// threads), default planner options, spill files inside the checkout.
sac::runtime::ClusterConfig BaseConfig(const std::string& spill_dir) {
  sac::runtime::ClusterConfig c;
  c.num_executors = 4;
  c.cores_per_executor = 1;
  c.spill_dir = spill_dir;
  return c;
}

/// A fresh engine with its tracer off: end-to-end metrics are timed
/// untraced, and the traced run turns it on explicitly.
std::unique_ptr<Sac> NewSac(const sac::runtime::ClusterConfig& config) {
  auto ctx = std::make_unique<Sac>(config);
  ctx->tracer().set_enabled(false);
  return ctx;
}

/// A span of the benchmark's own ("bench" category), tagged with the
/// operation it belongs to. A no-op while the tracer is off.
class BenchSpan {
 public:
  BenchSpan(Sac& ctx, const char* name, uint64_t op, uint64_t parent = 0)
      : span_(&ctx.tracer(), name, "bench", parent) {
    span_.AddArg("op", static_cast<int64_t>(op));
  }
  uint64_t id() const { return span_.id(); }

 private:
  sac::trace::ScopedSpan span_;
};

/// OK when every element of `got` is within `rtol * max(1, |want|)` of
/// `want`.
Status Compare(const Tile& got, const Tile& want, double rtol,
               const std::string& what) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return Status::RuntimeError("oracle: " + what + " has the wrong shape");
  }
  for (int64_t i = 0; i < got.size(); ++i) {
    const double w = want.data()[i];
    if (!(std::fabs(got.data()[i] - w) <= rtol * std::max(1.0, std::fabs(w)))) {
      return Status::RuntimeError("oracle: " + what + " differs at cell " +
                                  std::to_string(i) + ": " +
                                  std::to_string(got.data()[i]) + " vs " +
                                  std::to_string(w));
    }
  }
  return Status::OK();
}

Status CompareScalar(double got, double want, double rtol,
                     const std::string& what) {
  return Compare(Tile(1, 1, {got}), Tile(1, 1, {want}), rtol, what);
}

Status CompareVector(const std::vector<double>& got,
                     const std::vector<double>& want, double rtol,
                     const std::string& what) {
  return Compare(Tile(1, static_cast<int64_t>(got.size()), got),
                 Tile(1, static_cast<int64_t>(want.size()), want), rtol, what);
}

/// Times `op` into r->op_ms, then runs the oracle `check` under an
/// "oracle" span. A failed op skips the check.
void TimeAndCheck(Sac& ctx, uint64_t op_id, const std::function<Status()>& op,
                  const std::function<Status()>& check, OpResult* r) {
  Stopwatch sw;
  Status st = op();
  r->op_ms = sw.ElapsedMillis();
  if (st.ok()) {
    BenchSpan span(ctx, "oracle", op_id);
    const sac::MetricsSnapshot before = ctx.metrics().Snapshot();
    st = check();
    r->oracle_counters = Delta(ctx.metrics().Snapshot(), before);
  }
  r->ok = st.ok();
  if (!st.ok()) r->error = st.ToString();
}

Tile LocalAdd(const Tile& a, const Tile& b) {
  Tile out(a.rows(), a.cols());
  sac::la::Add(a, b, &out);
  return out;
}

Tile LocalTranspose(const Tile& a) {
  Tile t(a.cols(), a.rows());
  sac::la::Transpose(a, &t);
  return t;
}

/// a x.
std::vector<double> MatVec(const Tile& a, const std::vector<double>& x) {
  std::vector<double> y(static_cast<size_t>(a.rows()), 0.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) y[i] += a.At(i, j) * x[j];
  }
  return y;
}

/// a^T x.
std::vector<double> MatTVec(const Tile& a, const std::vector<double>& x) {
  std::vector<double> y(static_cast<size_t>(a.cols()), 0.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) y[j] += a.At(i, j) * x[i];
  }
  return y;
}

/// alpha u + beta v.
std::vector<double> Combine(double alpha, const std::vector<double>& u,
                            double beta, const std::vector<double>& v) {
  std::vector<double> out(u.size());
  for (size_t i = 0; i < u.size(); ++i) out[i] = alpha * u[i] + beta * v[i];
  return out;
}

// ---------------------------------------------------------------------------
// factor-iter: one client running successive gradient-descent iterations
// of the Figure 4c factorization, checkpointing P and Q every 10.

constexpr double kGamma = 0.002;
constexpr double kLambda = 0.02;
constexpr int kCheckpointEvery = 10;

class FactorIter : public Workload {
 public:
  FactorIter(uint64_t seed, bool smoke, std::string spill_dir)
      : seed_(seed), n_(smoke ? 128 : 512), k_(smoke ? 32 : 64),
        block_(smoke ? 32 : 64), spill_dir_(std::move(spill_dir)) {}

  std::string name() const override { return "factor-iter"; }
  std::string inputs() const override {
    return "R: " + std::to_string(n_) + "x" + std::to_string(n_) +
           " with 10% integer ratings 0..5; P, Q: " + std::to_string(n_) +
           "x" + std::to_string(k_) + " in [0, 0.1); tile " +
           std::to_string(block_);
  }

  void Teardown() override {
    r_ = TiledMatrix();  // datasets must not outlive their engine
    state_ = {};
    ctx_.reset();
  }

  Status Setup() override {
    ctx_ = NewSac(BaseConfig(spill_dir_));
    SAC_ASSIGN_OR_RETURN(
        r_, ctx_->RandomSparseMatrix(n_, n_, block_, Derive(seed_, 1), 0.1, 5));
    // P and Q start in [0, 0.1): small enough that gradient descent with
    // gamma = 0.002 stays stable over thousands of iterations (from
    // [0, 1) it overflows to inf within ten at n = 512).
    SAC_ASSIGN_OR_RETURN(
        TiledMatrix p,
        ctx_->RandomMatrix(n_, k_, block_, Derive(seed_, 2), 0, 0.1));
    SAC_ASSIGN_OR_RETURN(
        TiledMatrix q,
        ctx_->RandomMatrix(n_, k_, block_, Derive(seed_, 3), 0, 0.1));
    state_ = {p, q};
    local_p_ = local_q_ = Tile();
    iterations_ = 0;
    return Step(0);
  }

  Status BuildOracle() override {
    SAC_ASSIGN_OR_RETURN(r_local_, ctx_->ToLocal(r_));
    return Status::OK();
  }

  /// One more iteration, checked against the baseline (MLlib-style
  /// BlockMatrix) port on an engine of its own, so its stages never mix
  /// into the measured engine's counters.
  Status FinalCheck() override {
    using sac::baseline::BlockMatrix;
    const sac::algo::Factorization prev = state_;
    SAC_RETURN_NOT_OK(Step(0));
    auto oracle = NewSac(BaseConfig(spill_dir_));
    SAC_ASSIGN_OR_RETURN(Tile p0, ctx_->ToLocal(prev.p));
    SAC_ASSIGN_OR_RETURN(Tile q0, ctx_->ToLocal(prev.q));
    SAC_ASSIGN_OR_RETURN(TiledMatrix r,
                         oracle->MatrixFromLocal(r_local_, block_));
    SAC_ASSIGN_OR_RETURN(TiledMatrix p, oracle->MatrixFromLocal(p0, block_));
    SAC_ASSIGN_OR_RETURN(TiledMatrix q, oracle->MatrixFromLocal(q0, block_));
    SAC_ASSIGN_OR_RETURN(
        sac::baseline::FactorizationState want,
        sac::baseline::FactorizationStep(
            &oracle->engine(), BlockMatrix::FromTiled(r),
            {BlockMatrix::FromTiled(p), BlockMatrix::FromTiled(q)}, kGamma,
            kLambda));
    SAC_ASSIGN_OR_RETURN(Tile want_p, oracle->ToLocal(want.p.ToTiled()));
    SAC_ASSIGN_OR_RETURN(Tile want_q, oracle->ToLocal(want.q.ToTiled()));
    SAC_ASSIGN_OR_RETURN(Tile got_p, ctx_->ToLocal(state_.p));
    SAC_ASSIGN_OR_RETURN(Tile got_q, ctx_->ToLocal(state_.q));
    SAC_RETURN_NOT_OK(Compare(got_p, want_p, 1e-9, "P"));
    return Compare(got_q, want_q, 1e-9, "Q");
  }

  OpResult RunOp(int, uint64_t op_id) override {
    OpResult r;
    r.flops = 6.0 * n_ * n_ * k_ + 1.0 * n_ * n_ + 6.0 * n_ * k_;
    const sac::algo::Factorization prev = state_;
    TimeAndCheck(
        *ctx_, op_id, [&] { return Step(op_id); },
        [&] { return CheckStep(prev, op_id); }, &r);
    if (!r.ok) local_p_ = local_q_ = Tile();  // recollect next time
    return r;
  }

  Sac& ctx() override { return *ctx_; }

  /// The six query texts of algo::FactorizationStep, with the workload's
  /// own names bound to stand-ins of the same shapes (compile and analysis
  /// cost depends on shapes, not values).
  ProbeInputs Probe() override {
    ctx_->Bind("R", r_);
    ctx_->Bind("E", r_);
    ctx_->Bind("P", state_.p);
    ctx_->Bind("Q", state_.q);
    ctx_->Bind("EQ", state_.p);
    ctx_->Bind("ETP", state_.q);
    ctx_->BindScalar("n", n_);
    ctx_->BindScalar("rank", k_);
    ctx_->BindScalar("gl", 1.0 - kGamma * kLambda);
    ctx_->BindScalar("tg", 2.0 * kGamma);
    return {ctx_->engine().Collect(r_.tiles).ValueOr({}),
            {"tiled(n,n)[ ((i,j),+/v) | ((i,k),x) <- P, ((j,kk),y) <- Q,"
             " kk == k, let v = x*y, group by (i,j) ]",
             "tiled(n,n)[ ((i,j),x-y) | ((i,j),x) <- R, ((ii,jj),y) <- E,"
             " ii == i, jj == j ]",
             "tiled(n,rank)[ ((i,j),+/v) | ((i,k),x) <- E, ((kk,j),y) <- Q,"
             " kk == k, let v = x*y, group by (i,j) ]",
             "tiled(n,rank)[ ((i,j), gl*p + tg*g) | ((i,j),p) <- P,"
             " ((ii,jj),g) <- EQ, ii == i, jj == j ]",
             "tiled(n,rank)[ ((i,j),+/v) | ((k,i),x) <- E, ((kk,j),y) <- P,"
             " kk == k, let v = x*y, group by (i,j) ]",
             "tiled(n,rank)[ ((i,j), gl*q + tg*g) | ((i,j),q) <- Q,"
             " ((ii,jj),g) <- ETP, ii == i, jj == j ]"}};
  }

 private:
  /// One iteration, plus the checkpoint of P and Q every 10th.
  Status Step(uint64_t op_id) {
    BenchSpan op(*ctx_, "op", op_id);
    {
      BenchSpan span(*ctx_, "algo.factorization_step", op_id, op.id());
      SAC_ASSIGN_OR_RETURN(state_,
                           sac::algo::FactorizationStep(ctx_.get(), r_, state_,
                                                        kGamma, kLambda));
    }
    if (++iterations_ % kCheckpointEvery == 0) {
      BenchSpan span(*ctx_, "checkpoint", op_id, op.id());
      SAC_RETURN_NOT_OK(ctx_->Checkpoint(state_.p));
      SAC_RETURN_NOT_OK(ctx_->Checkpoint(state_.q));
    }
    return Status::OK();
  }

  /// Checks the iteration from `prev` with Freivalds' randomized test: for
  /// random vectors x, y it compares P'x and Q'y against
  ///   P'x = c P x + g (R (Q x) - P (Q^T (Q x)))
  ///   Q'y = c Q y + g (R^T (P y) - Q (P^T (P y)))
  /// (c = 1 - gamma*lambda, g = 2*gamma), computed with matrix-vector
  /// products on the collected matrices. A wrong element of P' or Q'
  /// shows in the product for almost every x, y, at O(n^2) instead of
  /// the O(n^2 k) of recomputing the iteration. The previous check
  /// already collected `prev`; the first one collects it.
  Status CheckStep(const sac::algo::Factorization& prev, uint64_t op_id) {
    if (local_p_.size() == 0) {
      SAC_ASSIGN_OR_RETURN(local_p_, ctx_->ToLocal(prev.p));
      SAC_ASSIGN_OR_RETURN(local_q_, ctx_->ToLocal(prev.q));
    }
    const Tile p = std::exchange(local_p_, Tile());
    const Tile q = std::exchange(local_q_, Tile());
    SAC_ASSIGN_OR_RETURN(Tile got_p, ctx_->ToLocal(state_.p));
    SAC_ASSIGN_OR_RETURN(Tile got_q, ctx_->ToLocal(state_.q));
    sac::Rng rng(Derive(seed_, op_id));
    std::vector<double> x(k_), y(k_);
    for (auto& v : x) v = rng.Uniform(0.5, 1.5);
    for (auto& v : y) v = rng.Uniform(0.5, 1.5);
    const double c = 1.0 - kGamma * kLambda, g = 2.0 * kGamma;
    const std::vector<double> qx = MatVec(q, x), py = MatVec(p, y);
    const std::vector<double> eqx =  // E (Q x)
        Combine(1, MatVec(r_local_, qx), -1, MatVec(p, MatTVec(q, qx)));
    const std::vector<double> etpy =  // E^T (P y)
        Combine(1, MatTVec(r_local_, py), -1, MatVec(q, MatTVec(p, py)));
    const std::vector<double> want_px = Combine(c, MatVec(p, x), g, eqx);
    const std::vector<double> want_qy = Combine(c, MatVec(q, y), g, etpy);
    SAC_RETURN_NOT_OK(CompareVector(MatVec(got_p, x), want_px, 1e-9, "P'x"));
    SAC_RETURN_NOT_OK(CompareVector(MatVec(got_q, y), want_qy, 1e-9, "Q'y"));
    local_p_ = std::move(got_p);
    local_q_ = std::move(got_q);
    return Status::OK();
  }

  const uint64_t seed_;
  const int64_t n_, k_, block_;
  const std::string spill_dir_;
  std::unique_ptr<Sac> ctx_;
  TiledMatrix r_;
  Tile r_local_;
  Tile local_p_, local_q_;  // state_ as of the last passed check
  sac::algo::Factorization state_;
  int64_t iterations_ = 0;
};

// ---------------------------------------------------------------------------
// service-mix: 4 client sessions over shared matrices, about 70% cached
// reads and 30% writes of fresh session-private matrices.

enum class Read { kAdd, kAddTranspose, kMultiply, kRowSums, kTotalSum };
constexpr int kNumReads = 5;
constexpr int kNumWriteSeeds = 8;
constexpr double kWriteShare = 0.3;
constexpr int kServiceClients = 4;

constexpr char kMultiply[] =
    "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k,"
    " let v = a*b, group by (i,j) ]";

constexpr const char* kReadTexts[kNumReads] = {
    "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
    " ii == i, jj == j ]",
    "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, ((jj,ii),b) <- B,"
    " ii == i, jj == j ]",
    kMultiply,
    "tiled(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
    "+/[ a | ((i,j),a) <- A ]",
};
constexpr char kWriteText[] =
    "tiled(n,n)[ ((i,j),w+a) | ((i,j),w) <- W, ((ii,jj),a) <- A,"
    " ii == i, jj == j ]";

/// Reference results of every read text and every write seed, computed
/// with local `la` kernels on collected inputs.
struct ServiceRefs {
  Tile add, add_t, mul;
  std::vector<double> row_sums;
  double total = 0;
  std::vector<Tile> write;  // W_s + A per write seed
};

/// The references for matrices `a`, `b` and write matrices `ws`.
ServiceRefs ComputeServiceRefs(const Tile& a, const Tile& b,
                               const std::vector<Tile>& ws) {
  ServiceRefs r;
  r.add = LocalAdd(a, b);
  r.add_t = LocalAdd(a, LocalTranspose(b));
  r.mul = Tile(a.rows(), b.cols());
  sac::la::GemmAccum(a, b, &r.mul);
  r.row_sums.assign(static_cast<size_t>(a.rows()), 0.0);
  sac::la::RowSums(a, r.row_sums.data());
  for (double v : r.row_sums) r.total += v;
  for (const Tile& w : ws) r.write.push_back(LocalAdd(w, a));
  return r;
}

class ServiceMix : public Workload {
 public:
  ServiceMix(uint64_t seed, bool smoke, std::string spill_dir)
      : seed_(seed), n_(smoke ? 64 : 256),
        block_(smoke ? 16 : 64), spill_dir_(std::move(spill_dir)) {
    for (int s = 0; s < kNumWriteSeeds; ++s) {
      write_seeds_.push_back(Derive(seed_, 10 + s));
    }
  }

  std::string name() const override { return "service-mix"; }
  std::string inputs() const override {
    return "A, B: " + std::to_string(n_) + "x" + std::to_string(n_) +
           " dense shared; W: fresh " + std::to_string(n_) + "x" +
           std::to_string(n_) + " from 8 seeds; tile " +
           std::to_string(block_) + "; 4 sessions, 2 admission slots";
  }
  int clients() const override { return kServiceClients; }

  void Teardown() override {
    // Sessions and datasets must not outlive their engine.
    sessions_.clear();
    a_ = b_ = TiledMatrix();
    ctx_.reset();
  }

  Status Setup() override {
    auto config = BaseConfig(spill_dir_);
    config.max_concurrent_queries = 2;
    ctx_ = NewSac(config);
    SAC_ASSIGN_OR_RETURN(a_, ctx_->RandomMatrix(n_, n_, block_,
                                                 Derive(seed_, 1)));
    SAC_ASSIGN_OR_RETURN(b_, ctx_->RandomMatrix(n_, n_, block_,
                                                 Derive(seed_, 2)));
    rngs_.clear();
    for (int c = 0; c < kServiceClients; ++c) {
      auto s = ctx_->OpenSession("client-" + std::to_string(c));
      s->Bind("A", a_);
      s->Bind("B", b_);
      s->BindScalar("n", n_);
      sessions_.push_back(std::move(s));
      rngs_.emplace_back(Derive(seed_, 100 + c));
    }
    // The cold op: every read text once, which fills the plan cache.
    for (const char* text : kReadTexts) {
      SAC_RETURN_NOT_OK(sessions_[0]->Eval(text).status());
    }
    return Status::OK();
  }

  Status BuildOracle() override {
    SAC_ASSIGN_OR_RETURN(Tile a, ctx_->ToLocal(a_));
    SAC_ASSIGN_OR_RETURN(Tile b, ctx_->ToLocal(b_));
    SAC_ASSIGN_OR_RETURN(std::vector<Tile> ws,
                         WriteMatrices(ctx_.get(), n_, block_));
    refs_ = ComputeServiceRefs(a, b, ws);
    return ValidateTexts();
  }

  OpResult RunOp(int client, uint64_t op_id) override {
    sac::Session& s = *sessions_[client];
    sac::Rng& rng = rngs_[client];
    OpResult r;
    const double nn = static_cast<double>(n_) * n_;
    if (rng.NextDouble() < kWriteShare) {
      const size_t seed = rng.NextBelow(kNumWriteSeeds);
      r.flops = nn;
      TiledMatrix out;
      TimeAndCheck(
          *ctx_, op_id,
          [&]() -> Status {
            BenchSpan op(*ctx_, "op", op_id);
            SAC_ASSIGN_OR_RETURN(
                TiledMatrix w,
                s.RandomMatrix(n_, n_, block_, write_seeds_[seed]));
            s.Bind("W", std::move(w));
            BenchSpan eval(*ctx_, "session.eval", op_id, op.id());
            Result<TiledMatrix> sum = s.EvalTiled(kWriteText);
            // A bound W would enter the plan-cache key of every later
            // read of this session and make it miss.
            s.Unbind("W");
            SAC_ASSIGN_OR_RETURN(out, std::move(sum));
            return Status::OK();
          },
          [&]() -> Status {
            SAC_ASSIGN_OR_RETURN(Tile got, s.ToLocal(out));
            return Compare(got, refs_.write[seed], 1e-9, "W+A");
          },
          &r);
      return r;
    }
    const auto read = static_cast<Read>(rng.NextBelow(kNumReads));
    r.flops = read == Read::kMultiply ? 2.0 * nn * n_ : nn;
    sac::planner::QueryResult out;
    TimeAndCheck(
        *ctx_, op_id,
        [&]() -> Status {
          BenchSpan op(*ctx_, "op", op_id);
          BenchSpan eval(*ctx_, "session.eval", op_id, op.id());
          SAC_ASSIGN_OR_RETURN(out, s.Eval(kReadTexts[static_cast<int>(read)]));
          return Status::OK();
        },
        [&]() -> Status { return CheckRead(s, read, out); }, &r);
    return r;
  }

  Sac& ctx() override { return *ctx_; }
  ProbeInputs Probe() override {
    ctx_->Bind("A", a_);
    ctx_->Bind("B", b_);
    ctx_->BindScalar("n", n_);
    ctx_->Bind("W", b_);
    std::vector<std::string> texts(std::begin(kReadTexts),
                                   std::end(kReadTexts));
    texts.push_back(kWriteText);
    return {ctx_->engine().Collect(a_.tiles).ValueOr({}), texts};
  }

 private:
  Result<std::vector<Tile>> WriteMatrices(Sac* ctx, int64_t n, int64_t block) {
    std::vector<Tile> ws;
    for (uint64_t seed : write_seeds_) {
      SAC_ASSIGN_OR_RETURN(TiledMatrix w, ctx->RandomMatrix(n, n, block, seed));
      SAC_ASSIGN_OR_RETURN(Tile local, ctx->ToLocal(w));
      ws.push_back(std::move(local));
    }
    return ws;
  }

  Status CheckRead(sac::Session& s, Read read,
                   const sac::planner::QueryResult& out) {
    switch (read) {
      case Read::kAdd:
      case Read::kAddTranspose:
      case Read::kMultiply: {
        SAC_ASSIGN_OR_RETURN(Tile got, s.ToLocal(out.tiled));
        const Tile& want = read == Read::kAdd           ? refs_.add
                           : read == Read::kAddTranspose ? refs_.add_t
                                                         : refs_.mul;
        return Compare(got, want, 1e-9, "read");
      }
      case Read::kRowSums: {
        SAC_ASSIGN_OR_RETURN(std::vector<double> got, s.ToLocal(out.vec));
        return CompareVector(got, refs_.row_sums, 1e-9, "row sums");
      }
      case Read::kTotalSum:
        if (!out.value.is_double()) {
          return Status::RuntimeError("oracle: total sum is not a double");
        }
        return CompareScalar(out.value.AsDouble(), refs_.total, 1e-9,
                             "total sum");
    }
    return Status::RuntimeError("oracle: unknown read");
  }

  /// The sequential reference evaluator is far too slow at full size, so
  /// the `la` formulas above are checked against Sac::ReferenceEval on
  /// every read text and every write seed at 16x16 (tile 8).
  Status ValidateTexts() {
    constexpr int64_t kN = 16, kBlock = 8;
    auto small = NewSac(BaseConfig(spill_dir_));
    SAC_ASSIGN_OR_RETURN(TiledMatrix a, small->RandomMatrix(kN, kN, kBlock,
                                                            Derive(seed_, 1)));
    SAC_ASSIGN_OR_RETURN(TiledMatrix b, small->RandomMatrix(kN, kN, kBlock,
                                                            Derive(seed_, 2)));
    small->Bind("A", a);
    small->Bind("B", b);
    small->BindScalar("n", kN);
    SAC_ASSIGN_OR_RETURN(Tile la, small->ToLocal(a));
    SAC_ASSIGN_OR_RETURN(Tile lb, small->ToLocal(b));
    SAC_ASSIGN_OR_RETURN(std::vector<Tile> ws,
                         WriteMatrices(small.get(), kN, kBlock));
    const ServiceRefs want = ComputeServiceRefs(la, lb, ws);
    auto matrix = [&](const char* text, const Tile& expect) -> Status {
      SAC_ASSIGN_OR_RETURN(sac::runtime::Value got, small->ReferenceEval(text));
      if (!got.is_tile()) return Status::RuntimeError("oracle: not a matrix");
      return Compare(got.AsTile(), expect, 1e-12, text);
    };
    SAC_RETURN_NOT_OK(matrix(kReadTexts[0], want.add));
    SAC_RETURN_NOT_OK(matrix(kReadTexts[1], want.add_t));
    SAC_RETURN_NOT_OK(matrix(kReadTexts[2], want.mul));
    SAC_ASSIGN_OR_RETURN(sac::runtime::Value rows,
                         small->ReferenceEval(kReadTexts[3]));
    std::vector<double> got_rows;
    for (const auto& row : rows.AsList()) {
      got_rows.push_back(row.At(1).AsDouble());
    }
    SAC_RETURN_NOT_OK(
        CompareVector(got_rows, want.row_sums, 1e-12, "row sums"));
    SAC_ASSIGN_OR_RETURN(sac::runtime::Value total,
                         small->ReferenceEval(kReadTexts[4]));
    SAC_RETURN_NOT_OK(
        CompareScalar(total.AsDouble(), want.total, 1e-12, "total"));
    for (int s = 0; s < kNumWriteSeeds; ++s) {
      SAC_ASSIGN_OR_RETURN(
          TiledMatrix w, small->RandomMatrix(kN, kN, kBlock, write_seeds_[s]));
      small->Bind("W", w);
      SAC_RETURN_NOT_OK(matrix(kWriteText, want.write[s]));
    }
    return Status::OK();
  }

  const uint64_t seed_;
  const int64_t n_, block_;
  const std::string spill_dir_;
  std::vector<uint64_t> write_seeds_;
  std::unique_ptr<Sac> ctx_;
  std::vector<std::unique_ptr<sac::Session>> sessions_;
  std::vector<sac::Rng> rngs_;
  TiledMatrix a_, b_;
  ServiceRefs refs_;
};

// ---------------------------------------------------------------------------
// add-dist-spill: one client running D = A + B, E = 0.5*D + C with shuffle
// buckets on 3 loopback workers and a memory budget below the working set.

constexpr char kAdd[] =
    "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
    " ii == i, jj == j ]";
constexpr char kScaleAdd[] =
    "tiled(n,n)[ ((i,j),0.5*d+c) | ((i,j),d) <- D, ((ii,jj),c) <- C,"
    " ii == i, jj == j ]";

class AddDistSpill : public Workload {
 public:
  /// Resident-byte budget: about 40% of the first chain's unlimited peak
  /// (26 MiB at n = 512), scaled with the matrix area in smoke mode.
  static constexpr uint64_t kBudgetBytes = 10ull << 20;

  AddDistSpill(uint64_t seed, bool smoke, std::string spill_dir)
      : seed_(seed), n_(smoke ? 128 : 512), block_(smoke ? 32 : 64),
        budget_(smoke ? kBudgetBytes / 16 : kBudgetBytes),
        spill_dir_(std::move(spill_dir)) {}

  std::string name() const override { return "add-dist-spill"; }
  std::string inputs() const override {
    return "A, B, C: " + std::to_string(n_) + "x" + std::to_string(n_) +
           " dense, tile " + std::to_string(block_) +
           "; 3 loopback workers; memory budget " +
           std::to_string(budget_ >> 20) + " MiB";
  }

  void Teardown() override {
    a_ = b_ = c_ = TiledMatrix();  // datasets must not outlive their engine
    ctx_.reset();
  }

  Status Setup() override {
    auto config = BaseConfig(spill_dir_);
    config.workers = "3";
    config.transport = "loopback";
    config.memory_budget_bytes = budget_;
    ctx_ = NewSac(config);
    SAC_ASSIGN_OR_RETURN(a_, ctx_->RandomMatrix(n_, n_, block_,
                                                 Derive(seed_, 1)));
    SAC_ASSIGN_OR_RETURN(b_, ctx_->RandomMatrix(n_, n_, block_,
                                                 Derive(seed_, 2)));
    SAC_ASSIGN_OR_RETURN(c_, ctx_->RandomMatrix(n_, n_, block_,
                                                 Derive(seed_, 3)));
    ctx_->Bind("A", a_);
    ctx_->Bind("B", b_);
    ctx_->Bind("C", c_);
    ctx_->BindScalar("n", n_);
    return Chain(0, nullptr);
  }

  Status BuildOracle() override {
    SAC_ASSIGN_OR_RETURN(Tile a, ctx_->ToLocal(a_));
    SAC_ASSIGN_OR_RETURN(Tile b, ctx_->ToLocal(b_));
    SAC_ASSIGN_OR_RETURN(Tile c, ctx_->ToLocal(c_));
    const Tile d = LocalAdd(a, b);
    ref_ = Tile(n_, n_);
    sac::la::Axpby(0.5, d, 1.0, c, &ref_);
    return Status::OK();
  }

  OpResult RunOp(int, uint64_t op_id) override {
    OpResult r;
    r.flops = 3.0 * n_ * n_;
    TiledMatrix e;
    TimeAndCheck(
        *ctx_, op_id, [&] { return Chain(op_id, &e); },
        [&]() -> Status {
          SAC_ASSIGN_OR_RETURN(Tile got, ctx_->ToLocal(e));
          return Compare(got, ref_, 1e-12, "E");
        },
        &r);
    return r;
  }

  Sac& ctx() override { return *ctx_; }
  ProbeInputs Probe() override {
    return {ctx_->engine().Collect(a_.tiles).ValueOr({}), {kAdd, kScaleAdd}};
  }

 private:
  Status Chain(uint64_t op_id, TiledMatrix* out) {
    BenchSpan op(*ctx_, "op", op_id);
    TiledMatrix d, e;
    {
      BenchSpan span(*ctx_, "eval", op_id, op.id());
      SAC_ASSIGN_OR_RETURN(d, ctx_->EvalTiled(kAdd));
    }
    ctx_->Bind("D", d);
    {
      BenchSpan span(*ctx_, "eval", op_id, op.id());
      SAC_ASSIGN_OR_RETURN(e, ctx_->EvalTiled(kScaleAdd));
    }
    if (out != nullptr) *out = std::move(e);
    return Status::OK();
  }

  const uint64_t seed_;
  const int64_t n_, block_;
  const uint64_t budget_;
  const std::string spill_dir_;
  std::unique_ptr<Sac> ctx_;
  TiledMatrix a_, b_, c_;
  Tile ref_;
};

}  // namespace

sac::MetricsSnapshot Delta(const sac::MetricsSnapshot& after,
                           const sac::MetricsSnapshot& before) {
  std::vector<uint64_t> b;
  before.ForEachCounter([&](const char*, uint64_t v) { b.push_back(v); });
  sac::MetricsSnapshot d = after;
  size_t i = 0;
  d.ForEachCounter([&](const char*, uint64_t& v) { v -= b[i++]; });
  return d;
}

void Accumulate(sac::MetricsSnapshot* sum, const sac::MetricsSnapshot& d) {
  std::vector<uint64_t> add;
  d.ForEachCounter([&](const char*, uint64_t v) { add.push_back(v); });
  size_t i = 0;
  sum->ForEachCounter([&](const char*, uint64_t& v) { v += add[i++]; });
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke,
                                       const std::string& spill_dir) {
  if (name == "factor-iter") {
    return std::make_unique<FactorIter>(seed, smoke, spill_dir);
  }
  if (name == "service-mix") {
    return std::make_unique<ServiceMix>(seed, smoke, spill_dir);
  }
  if (name == "add-dist-spill") {
    return std::make_unique<AddDistSpill>(seed, smoke, spill_dir);
  }
  return nullptr;
}

}  // namespace perfbench
