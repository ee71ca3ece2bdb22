#ifndef ODF_SERVE_FORWARD_PLAN_H_
#define ODF_SERVE_FORWARD_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "autograd/var.h"
#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "nn/graph_pool.h"
#include "tensor/csr.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/metrics.h"

namespace odf::serve {

/// Tape-free compiled inference (docs/serving.md).
///
/// `PlanCompiler::Compile` walks a trained AF or BF once and emits a flat
/// execution schedule — one `Instr` per tensor kernel of the model's
/// inference forward — over a preallocated arena of buffers. `ForwardPlan::
/// Run` then replays that schedule with zero autograd involvement: no
/// `Var`/`Node` allocation, no `shared_ptr` churn, no per-op output tensors.
/// Buffers are allocated once per batch size and reused across calls.
///
/// Bit-identity: every instruction either calls the exact `odf::` tensor
/// kernel core (its width-templated `*Raw` function, the Chebyshev basis
/// included) that the corresponding op runs on the tape, or a re-layouted
/// serving kernel (prepacked GEMM, time-batched branch evaluation) that
/// performs the identical per-element accumulation — same terms, same
/// ascending order, same FP contraction — so `Run` reproduces
/// `Predict` bit-for-bit at any thread count (tests/serving_test.cc asserts
/// this on trained checkpoints).
///
/// The plan snapshots the model's parameter tensors at compile time (the
/// prepacked weight panels are derived from them, so post-compile weight
/// loads require recompiling the plan) but holds non-owning references to
/// branch cluster tables and graph operators; the model must outlive the
/// plan. Compile after `nn::LoadParametersChecked`, not before.
///
/// `Run` is NOT reentrant — callers serialize (the serving front-end funnels
/// every batch through one worker thread).

/// Arithmetic width a compiled plan executes at (docs/serving.md
/// "Precision").
///
/// Both widths run the same schedule through one interpreter,
/// `ForwardPlan::Exec<T>`, instantiated at float and double; every
/// instruction calls one width-templated kernel. `kFp32` is the substrate
/// width: each kernel is the exact float core the tape calls, so Run
/// reproduces Predict bit-for-bit — this is the default serving mode and the
/// only one under the bit-identity contract. `kFp64` is the widened
/// reference plan: weights, prepacked panels, graph operators and the whole
/// arena are snapshotted into double buffers at compile time, inputs widen
/// once at plan entry and outputs narrow once at exit — no per-call
/// conversions. Its role is accuracy arbitration: the serve-time gate and
/// tests/serving_precision_test.cc measure the fp32 plan's KL/JS/EMD
/// deltas against it, and bench_serving's --precision sweep reports the
/// fp32-over-fp64 speedup (the fp64 kernels run at half the vector lanes
/// and twice the memory traffic). Both widths are bit-identical across
/// thread counts.
enum class Precision : uint8_t { kFp32, kFp64 };

inline const char* PrecisionName(Precision p) {
  return p == Precision::kFp64 ? "fp64" : "fp32";
}

/// Buffer/output shape parameterized on the runtime batch size B:
/// dims = {mult · B, tail...}. Every tensor in the forward has B as a
/// factor of its leading dimension, so this spec covers all of them.
struct BufShape {
  int64_t mult = 1;
  std::vector<int64_t> tail;

  std::vector<int64_t> Dims(int64_t batch) const {
    std::vector<int64_t> dims;
    dims.reserve(tail.size() + 1);
    dims.push_back(mult * batch);
    dims.insert(dims.end(), tail.begin(), tail.end());
    return dims;
  }
  int64_t NumelPerBatch() const {
    int64_t n = mult;
    for (int64_t d : tail) n *= d;
    return n;
  }
};

enum class OpKind : uint8_t {
  kLoadInput,          // copy inputs[input_index] into out at `start`·B elems
  kLoadInputPermuted,  // out = Permute(inputs[input_index], perm)
  kReshape,            // re-view buffer `out` as shape (no data movement)
  kCopy,               // out = a (element copy, same numel)
  kSliceRows,          // out = a[start·B : start·B + out.numel] (elements)
  kStackRows,          // out[start·B : start·B + a.numel] = a (elements)
  kZero,               // out = 0
  kAdd,                // out = a + b (broadcast)
  kMul,                // out = a ⊙ b (broadcast)
  kAddBiasW,           // out = a + weights[w] (broadcast bias)
  kAddScalar,          // out = a + scalar
  kMulScalar,          // out = a · scalar
  kSigmoid,            // out = σ(a)
  kTanh,               // out = tanh(a)
  kRelu,               // out = relu(a)
  kMatMulW,            // out = a · weights[w]           (rank 2)
  kBatchMatMulW,       // out = a ·batched weights[w]    (rank 3 × rank 2)
                       //   (both run prepacked panels when ins.prepacked)
  kConcat2,            // out = Concat({a, b}, axis)
  kConcatN,            // out = Concat(srcs, axis)
  kSlice,              // out = a[..., start:start+len, ...] along axis
  kSumKeep,            // out = Sum(a, axis, keepdim=true)
  kSoftmax,            // out = softmax over last axis of a
  kPermute,            // out = Permute(a, perm)
  kChebBasis,          // out = ChebyshevBasis(graph, a, order); srcs[0..2]
                       //   are the shared wide-layout scratch buffers
  kGraphApply,         // out = graph · a (one polynomial tap; the diffusion
                       //   basis composes these — see EmitBasisTaps)
  kGraphPool,          // out = GraphPool(a, *clusters, pool)
  kRecover,            // out = FusedRecover(a, b, weights[w][0])
};

/// One schedule step. `a`/`b` are input buffer ids, `out` the output buffer,
/// `w` an index into the plan's weight table; unused fields stay at their
/// defaults. `shape` is the output buffer's view for this instruction and is
/// applied (as a free re-view; numel never changes) before the kernel runs.
struct Instr {
  OpKind kind = OpKind::kZero;
  int32_t a = -1;
  int32_t b = -1;
  int32_t out = -1;
  int32_t w = -1;
  int32_t input_index = -1;
  int64_t axis = 0;
  int64_t start = 0;
  int64_t len = 0;
  int64_t order = 0;
  float scalar = 0.0f;
  bool prepacked = false;      // kMatMulW/kBatchMatMulW: use packed panels
  BufShape shape;
  std::vector<int64_t> perm;   // kLoadInputPermuted / kPermute
  std::vector<int32_t> srcs;   // kConcatN / kChebBasis wide scratch
  std::shared_ptr<const GraphOperator> graph;  // kChebBasis / kGraphApply
  int32_t graph64 = -1;  // fp64 plans: graph's snapshot (set when lowered)
  const std::vector<std::vector<int64_t>>* clusters = nullptr;  // kGraphPool
  nn::PoolKind pool = nn::PoolKind::kAverage;                // kGraphPool
};

class ForwardPlan {
 public:
  ForwardPlan() = default;
  ForwardPlan(ForwardPlan&&) = default;
  ForwardPlan& operator=(ForwardPlan&&) = default;

  /// Executes the schedule on `inputs` (the model's `Batch::inputs`:
  /// `history()` tensors, each [B, N, N', K]). Reallocates arena buffers
  /// only when B differs from the previous call. Not reentrant.
  void Run(const std::vector<Tensor>& inputs);

  /// Horizon-step prediction `j` of the last Run: [B, N, N', K]. The
  /// reference stays valid (and stable) until the next Run at a different
  /// batch size.
  const Tensor& output(int64_t j) const {
    ODF_CHECK_GE(j, 0);
    ODF_CHECK_LT(j, static_cast<int64_t>(outputs_.size()));
    return bufs_[static_cast<size_t>(outputs_[static_cast<size_t>(j)])];
  }

  /// Arithmetic width this plan executes at (fixed at compile time).
  Precision precision() const { return precision_; }

  int64_t history() const { return history_; }
  int64_t horizon() const { return static_cast<int64_t>(outputs_.size()); }
  int64_t num_instructions() const {
    return static_cast<int64_t>(instrs_.size());
  }
  int64_t num_buffers() const { return static_cast<int64_t>(bufs_.size()); }

  /// Distinct GraphOperators referenced by the schedule (empty for BF and
  /// graph-free ablations). Pointer-compared by tests to assert that plans
  /// compiled from independently constructed models share the memoized
  /// operators (graph/laplacian.h).
  const std::vector<std::shared_ptr<const GraphOperator>>& graph_operators()
      const {
    return graph_ops_;
  }

 private:
  friend class PlanCompiler;

  void EnsureBatch(int64_t batch);
  /// Replays one instruction at width T (float for fp32 plans, double for
  /// fp64). Shapes always come from the float buffers — PrepareShape keeps
  /// them in lock-step with the schedule at both widths — while payloads,
  /// weights, panels and graph operands come from the width-T tables
  /// through the accessors below.
  template <typename T>
  void Exec(const Instr& ins, const std::vector<Tensor>& inputs);
  /// Snapshots the compiled fp32 tables (weights, prepacked panels, graph
  /// operators) into their double twins, points every graph instruction at
  /// its snapshot, and flips the plan to kFp64. Called once by
  /// PlanCompiler::Compile; the fp32 tables stay resident for shape
  /// metadata.
  void LowerToFp64();

  /// Graph operand of a kChebBasis / kGraphApply instruction at width T:
  /// a non-null `dense` selects the dense path, otherwise the CSR values
  /// (structure always comes from the operator itself).
  template <typename T>
  struct GraphArrays {
    const T* dense;
    const T* values;
  };
  template <typename T>
  T* Data(int32_t buf);
  template <typename T>
  const T* Weight(int32_t w) const;
  template <typename T>
  const PackedGemmBT<T>& Packed(int32_t w) const;
  template <typename T>
  GraphArrays<T> Graph(const Instr& ins) const;

  struct Phase {
    const char* name = "";
    size_t begin = 0;
    size_t end = 0;
    Histogram* hist = nullptr;  // serve.plan.<name>_seconds
  };

  /// Double snapshot of one GraphOperator (fp64 plans): exactly one of
  /// `dense` / `csr_values` is populated, matching the operator's chosen
  /// path. CSR structure (row_ptr/col_idx) is shared with the operator,
  /// which the plan keeps alive through graph_ops_.
  struct GraphData64 {
    std::vector<double> dense;
    std::vector<double> csr_values;
  };

  std::vector<Instr> instrs_;
  std::vector<BufShape> specs_;  // canonical (allocation) shape per buffer
  std::vector<Tensor> bufs_;
  std::vector<Tensor> weights_;        // compile-time parameter snapshots
  std::vector<PackedGemmB> packed_;    // per-weight panels (empty if unused)
  std::vector<int32_t> outputs_;       // buffer id per horizon step
  std::vector<Phase> phases_;
  std::vector<std::shared_ptr<const GraphOperator>> graph_ops_;
  std::vector<const Tensor*> concat_scratch_;

  // fp64 twins (empty on fp32 plans): one double arena slab per buffer,
  // double weight snapshots, double prepacked panels, graph snapshots
  // (graph64_[i] snapshots graph_ops_[i]).
  std::vector<std::vector<double>> dbufs_;
  std::vector<std::vector<double>> dweights_;
  std::vector<PackedGemmB64> dpacked_;
  std::vector<GraphData64> graph64_;

  Precision precision_ = Precision::kFp32;
  int64_t history_ = 0;
  // Expected input tensor shape tail [N, N', K].
  std::vector<int64_t> input_tail_;
  int64_t batch_ = -1;
};

/// Compiles inference schedules from trained models. Friend of every nn
/// module so it can lift private weights and graph operators into the plan's
/// tables without widening the module APIs.
class PlanCompiler {
 public:
  /// `history` is the dataset's input window length s (ForecastDataset::
  /// history()); the schedule is unrolled over it. `precision` picks the
  /// arithmetic width of the emitted plan (see Precision above): kFp32 is
  /// the bit-identical default, kFp64 the widened reference plan.
  static ForwardPlan Compile(const AdvancedFramework& model, int64_t history,
                             Precision precision = Precision::kFp32);
  static ForwardPlan Compile(const BasicFramework& model, int64_t history,
                             Precision precision = Precision::kFp32);

 private:
  PlanCompiler() = default;

  // -- schedule assembly -------------------------------------------------
  int32_t NewBuf(BufShape spec);
  int32_t AddWeight(const autograd::Var& v);
  /// Marks a kMatMulW/kBatchMatMulW instruction prepacked (and packs its
  /// weight panels once) when the blocked path handles its row count.
  void MaybePrepack(Instr& mm, const BufShape& os);
  /// Grows (or allocates) the three wide-layout Chebyshev scratch buffers
  /// shared by every kChebBasis site to at least `numel_per_batch` floats.
  void EnsureWideScratch(int64_t numel_per_batch);
  Instr& Emit(OpKind kind, int32_t out, BufShape shape);
  void BeginPhase(const char* name);
  void AddGraph(const std::shared_ptr<const GraphOperator>& op);
  const BufShape& ShapeOf(int32_t buf) const;
  void Reshape(int32_t buf, BufShape shape);

  // -- module lowering (each mirrors the module's tape forward) ----------
  int32_t EmitChebTaps(const std::shared_ptr<const GraphOperator>& op,
                       int32_t x, int64_t order, int32_t taps);
  /// GraphBasis::Stack on rank-3 `x` into `taps` [B, n, basis.taps()·F].
  /// Every Chebyshev recurrence is one kChebBasis: the primary basis, the
  /// demand-correlation tail (its taps 2..order sliced out and concatenated
  /// after the primary taps) and the adaptive basis, whose
  /// softmax(relu(E_o·E_dᵀ)) is snapshotted at compile time into a dense
  /// GraphOperator. Diffusion composes kGraphApply taps. Each matches the
  /// tape's ops term for term. Returns the taps buffer.
  int32_t EmitBasisTaps(const nn::GraphBasis& basis, int32_t x, int32_t taps);
  /// One kGraphApply instruction: out = op · x (shapes equal).
  void EmitGraphApply(const std::shared_ptr<const GraphOperator>& op,
                      int32_t x, int32_t out);
  /// ChebConv::Forward on rank-3 `x`; result lands in `out` when >= 0.
  int32_t EmitChebConv(const nn::ChebConv& conv, int32_t x, int32_t out);
  /// Linear::Forward on rank-2 `x`; result lands in `out` when >= 0.
  int32_t EmitLinear(const nn::Linear& linear, int32_t x, int32_t out);
  void EmitGcGruStep(const nn::GcGruCell& cell, int32_t x, int32_t h);
  void EmitGruStep(const nn::GruCell& cell, int32_t x, int32_t h);
  int32_t EmitAttention(const nn::LuongAttention& attention, int32_t decoder,
                        const std::vector<int32_t>& encoder_copies);
  /// AdvancedFramework::ApplyBranch into `out` shaped [B·slices, β, K].
  void EmitBranch(const AdvancedFramework& model,
                  const AdvancedFramework::FactorBranch& branch, int32_t in,
                  int32_t out);

  struct SeqState {
    std::vector<int32_t> states;          // per-layer hidden buffers
    std::vector<int32_t> encoder_copies;  // per-step top states (attention)
    int32_t last_input = -1;
  };
  SeqState EmitGcGruEncoder(const nn::Seq2SeqGcGru& seq,
                            const std::vector<int32_t>& inputs);
  std::vector<int32_t> EmitGcGruDecoder(const nn::Seq2SeqGcGru& seq,
                                        const SeqState& state,
                                        int64_t horizon);
  SeqState EmitGruEncoder(const nn::Seq2SeqGru& seq,
                          const std::vector<int32_t>& inputs);
  std::vector<int32_t> EmitGruDecoder(const nn::Seq2SeqGru& seq,
                                      const SeqState& state, int64_t horizon);

  /// Per-module scratch buffers, reused across unrolled steps (the schedule
  /// is sequential, so one set per module is enough).
  std::vector<int32_t>& Scratch(const void* key);

  ForwardPlan plan_;
  std::vector<BufShape> shapes_;  // compile-time view per buffer
  std::map<const void*, std::vector<int32_t>> scratch_;
  // Weight dedup: source parameter tensor -> snapshot index in weights_.
  std::map<const Tensor*, int32_t> weight_ids_;
  int32_t wide_scratch_[3] = {-1, -1, -1};
  // Per-site part buffers of the multi-part EmitBasisTaps paths, keyed
  // by the taps buffer id (one basis serves call sites of different feature
  // widths, so per-basis keying would mix shapes).
  std::map<int32_t, std::vector<int32_t>> basis_scratch_;
  // Compile-time adaptive adjacency snapshots, one per GraphBasis.
  std::map<const void*, std::shared_ptr<const GraphOperator>> adaptive_ops_;
};

}  // namespace odf::serve

#endif  // ODF_SERVE_FORWARD_PLAN_H_
