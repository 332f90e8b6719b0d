#include "tensor/kernels/fused.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/grain.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels/arena.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"

namespace benchtemp::tensor::kernels::fused {

namespace {

/// Per-row flop weight used only for chunk sizing (shape-derived, so the
/// chunk boundaries stay part of the determinism contract).
int64_t RowCost(const Program& p) {
  return static_cast<int64_t>(p.instrs.size()) * p.cols;
}

/// Rows evaluated per block. An instruction with no broadcast operand runs
/// as ONE kernel call over the whole block (amortizing dispatch across
/// rows), so the block wants to be large; every scratch slot of the block
/// must stay cache-resident, so it wants to be small. Shape-derived only —
/// block boundaries never depend on thread count, and evaluation is
/// elementwise, so blocking cannot change bits either way.
int64_t BlockRows(const Program& p) {
  const int64_t target = 2048 / std::max<int64_t>(p.cols, 1);
  return std::max<int64_t>(1, std::min<int64_t>(64, target));
}

/// True when the instruction must be evaluated row by row: one of its
/// operands is a broadcast input, whose span for row r is not a contiguous
/// continuation of its span for row r-1.
bool Rowwise(const Program& p, const Instr& ins) {
  const auto bcast_input = [&p](int32_t slot) {
    return slot < p.num_inputs && p.input_bcast[slot] != Bcast::kNone;
  };
  if (bcast_input(ins.a)) return true;
  return !IsUnary(ins.op) && bcast_input(ins.b);
}

/// Contiguous span of `slot` covering rows [rb0, rb0+bn). Valid only for
/// non-broadcast inputs and scratch slots (the !Rowwise fast path).
const float* BlockSpan(const Program& p, const float* const* inputs,
                       const float* scratch, int64_t rb0, int64_t bn,
                       int32_t slot) {
  if (slot < p.num_inputs) return inputs[slot] + rb0 * p.cols;
  return scratch +
         static_cast<int64_t>(slot - p.num_inputs) * bn * p.cols;
}

/// Span of `slot` for row `r` of the block starting at `rb0` (scratch
/// slots are laid out [instr][block row][col], stride bn * cols).
const float* RowPtr(const Program& p, const float* const* inputs,
                    const float* scratch, int64_t rb0, int64_t bn, int64_t r,
                    int32_t slot) {
  if (slot < p.num_inputs) {
    switch (p.input_bcast[slot]) {
      case Bcast::kNone:
        return inputs[slot] + r * p.cols;
      case Bcast::kRow:
        return inputs[slot];
      case Bcast::kCol:
        return inputs[slot] + r;
    }
  }
  return scratch +
         (static_cast<int64_t>(slot - p.num_inputs) * bn + (r - rb0)) *
             p.cols;
}

/// True for the ops whose derivative reads their own output value.
bool SelfValued(OpKind op) {
  return op == OpKind::kSigmoid || op == OpKind::kTanh || op == OpKind::kExp;
}

/// Marks the scratch slots whose forward values the derivative sweep must
/// RECOMPUTE — Mul/Relu/Cos/Sin read operand values, and Sigmoid/Tanh/Exp
/// read their own output — plus their transitive dependencies. Slots the
/// forward stashed are satisfied from the checkpoint instead, and their
/// upstream chains drop out of the recompute with them. The backward
/// recompute skips every unmarked instruction (the skipped values are
/// never read, so bits are unchanged); for an Add/Sub/Scale-only chain the
/// recompute disappears entirely.
std::vector<uint8_t> BackwardNeeded(const Program& p, const Stash* stash) {
  const int64_t n = static_cast<int64_t>(p.instrs.size());
  std::vector<uint8_t> needed(static_cast<size_t>(n), 0);
  const auto stashed = [&](int64_t instr) {
    return stash != nullptr && stash->stash_of[static_cast<size_t>(instr)] >= 0;
  };
  const auto mark = [&](int32_t slot) {
    if (slot >= p.num_inputs && !stashed(slot - p.num_inputs)) {
      needed[static_cast<size_t>(slot - p.num_inputs)] = 1;
    }
  };
  for (int64_t i = 0; i < n; ++i) {
    const Instr& ins = p.instrs[i];
    switch (ins.op) {
      case OpKind::kMul:
        mark(ins.a);
        mark(ins.b);
        break;
      case OpKind::kRelu:
      case OpKind::kCos:
      case OpKind::kSin:
        mark(ins.a);
        break;
      case OpKind::kSigmoid:
      case OpKind::kTanh:
      case OpKind::kExp:
        if (!stashed(i)) needed[static_cast<size_t>(i)] = 1;
        break;
      default:
        break;
    }
  }
  // Operands precede their instruction in the topological order, so one
  // descending pass closes the dependency set.
  for (int64_t i = n - 1; i >= 0; --i) {
    if (!needed[static_cast<size_t>(i)]) continue;
    const Instr& ins = p.instrs[i];
    mark(ins.a);
    if (!IsUnary(ins.op)) mark(ins.b);
  }
  return needed;
}

/// Executes the chain for the block of rows [rb0, rb0+bn). Instruction i
/// writes scratch slot i, except the last one which writes `out` when it
/// is non-null (the forward pass); the backward recompute passes null and
/// keeps everything in scratch so the root value is available for
/// derivative replay. A non-null `needed` mask (backward recompute only)
/// skips instructions whose values the derivative sweep never reads.
void EvalBlock(const Program& p, const float* const* inputs, int64_t rb0,
               int64_t bn, float* scratch, float* out,
               const uint8_t* needed = nullptr) {
  const int64_t d = p.cols;
  const size_t last = p.instrs.size() - 1;
  for (size_t i = 0; i < p.instrs.size(); ++i) {
    if (needed != nullptr && !needed[i]) continue;
    const Instr& ins = p.instrs[i];
    float* slot_base = scratch + static_cast<int64_t>(i) * bn * d;
    float* o_base =
        (i == last && out != nullptr) ? out + rb0 * d : slot_base;
    if (!Rowwise(p, ins)) {
      const int64_t vol = bn * d;
      const float* a = BlockSpan(p, inputs, scratch, rb0, bn, ins.a);
      switch (ins.op) {
        case OpKind::kAdd:
          AddOut(o_base, a, BlockSpan(p, inputs, scratch, rb0, bn, ins.b),
                 vol);
          break;
        case OpKind::kSub:
          SubOut(o_base, a, BlockSpan(p, inputs, scratch, rb0, bn, ins.b),
                 vol);
          break;
        case OpKind::kMul:
          MulOut(o_base, a, BlockSpan(p, inputs, scratch, rb0, bn, ins.b),
                 vol);
          break;
        case OpKind::kScalarMul:
          ScaleOut(o_base, ins.scalar, a, vol);
          break;
        case OpKind::kScalarAdd:
          AddScalarOut(o_base, ins.scalar, a, vol);
          break;
        case OpKind::kSigmoid:
          SigmoidForward(a, o_base, vol);
          break;
        case OpKind::kTanh:
          for (int64_t c = 0; c < vol; ++c) o_base[c] = std::tanh(a[c]);
          break;
        case OpKind::kRelu:
          for (int64_t c = 0; c < vol; ++c) {
            o_base[c] = a[c] > 0.0f ? a[c] : 0.0f;
          }
          break;
        case OpKind::kExp:
          for (int64_t c = 0; c < vol; ++c) o_base[c] = std::exp(a[c]);
          break;
        case OpKind::kCos:
          for (int64_t c = 0; c < vol; ++c) o_base[c] = std::cos(a[c]);
          break;
        case OpKind::kSin:
          for (int64_t c = 0; c < vol; ++c) o_base[c] = std::sin(a[c]);
          break;
      }
      continue;
    }
    for (int64_t r = rb0; r < rb0 + bn; ++r) {
      const float* a = RowPtr(p, inputs, scratch, rb0, bn, r, ins.a);
      float* o = o_base + (r - rb0) * d;
      switch (ins.op) {
        case OpKind::kAdd:
          AddOut(o, a, RowPtr(p, inputs, scratch, rb0, bn, r, ins.b), d);
          break;
        case OpKind::kSub:
          SubOut(o, a, RowPtr(p, inputs, scratch, rb0, bn, r, ins.b), d);
          break;
        case OpKind::kMul:
          if (ins.bcast == Bcast::kCol) {
            ScaleOut(o, RowPtr(p, inputs, scratch, rb0, bn, r, ins.b)[0], a,
                     d);
          } else {
            MulOut(o, a, RowPtr(p, inputs, scratch, rb0, bn, r, ins.b), d);
          }
          break;
        case OpKind::kScalarMul:
          ScaleOut(o, ins.scalar, a, d);
          break;
        case OpKind::kScalarAdd:
          AddScalarOut(o, ins.scalar, a, d);
          break;
        case OpKind::kSigmoid:
          SigmoidForward(a, o, d);
          break;
        case OpKind::kTanh:
          for (int64_t c = 0; c < d; ++c) o[c] = std::tanh(a[c]);
          break;
        case OpKind::kRelu:
          for (int64_t c = 0; c < d; ++c) o[c] = a[c] > 0.0f ? a[c] : 0.0f;
          break;
        case OpKind::kExp:
          for (int64_t c = 0; c < d; ++c) o[c] = std::exp(a[c]);
          break;
        case OpKind::kCos:
          for (int64_t c = 0; c < d; ++c) o[c] = std::cos(a[c]);
          break;
        case OpKind::kSin:
          for (int64_t c = 0; c < d; ++c) o[c] = std::sin(a[c]);
          break;
      }
    }
  }
}

/// Accumulation target of one contribution during the backward sweep: an
/// adjoint scratch span, a leaf gradient span, a row-broadcast staging row,
/// or nothing (leaf that needs no gradient — the eager closures skip those
/// via requires_grad, so the fused replay must too).
struct GradDst {
  float* span = nullptr;  // null means skip
  bool is_col = false;    // column-broadcast leaf: span is &grad[r], width 1
};

/// Reusable per-worker block scratch. Model chains materialize thousands of
/// times per epoch over cache-resident tensors, where a heap round-trip per
/// sweep chunk is measurable against the fused pass itself; one
/// geometrically grown buffer per worker removes it without changing any
/// bits (within a block, every scratch span is written before it is read,
/// so stale contents are never observed). `which` separates the backward's
/// two concurrent buffers (values / adjoint) on the same thread.
float* ThreadScratch(size_t n, int which) {
  // btlint: allow(mutable-static) — thread_local worker scratch.
  thread_local std::vector<float> bufs[2];
  std::vector<float>& b = bufs[which];
  if (b.size() < n) b.resize(n);
  return b.data();
}

}  // namespace

const char* OpName(OpKind op) {
  switch (op) {
    case OpKind::kAdd:
      return "add";
    case OpKind::kSub:
      return "sub";
    case OpKind::kMul:
      return "mul";
    case OpKind::kScalarMul:
      return "smul";
    case OpKind::kScalarAdd:
      return "sadd";
    case OpKind::kSigmoid:
      return "sigmoid";
    case OpKind::kTanh:
      return "tanh";
    case OpKind::kRelu:
      return "relu";
    case OpKind::kExp:
      return "exp";
    case OpKind::kCos:
      return "cos";
    case OpKind::kSin:
      return "sin";
  }
  return "?";
}

bool IsUnary(OpKind op) {
  switch (op) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
      return false;
    default:
      return true;
  }
}

void Forward(const Program& p, const float* const* inputs, float* out,
             Stash* stash) {
  CountFlops(p.flops);
  const int64_t d = p.cols;
  const int64_t n_instr = static_cast<int64_t>(p.instrs.size());
  const int64_t bmax = BlockRows(p);
  if (stash != nullptr) {
    // Buffers come from the (thread-local) tape arena, so they must be
    // allocated here on the calling thread, never inside the sweep.
    stash->stash_of.assign(p.instrs.size(), -1);
    for (size_t i = 0; i < p.instrs.size(); ++i) {
      if (SelfValued(p.instrs[i].op)) {
        stash->stash_of[i] = static_cast<int32_t>(stash->bufs.size());
        stash->bufs.push_back(NewWriteOnlyTensor({p.rows, p.cols}));
      }
    }
    if (stash->bufs.empty()) stash = nullptr;
  }
  runtime::ParallelFor(
      0, p.rows, runtime::RowGrain(RowCost(p)), [&](int64_t r0, int64_t r1) {
        float* scratch =
            ThreadScratch(static_cast<size_t>(n_instr * bmax * d), 0);
        for (int64_t rb = r0; rb < r1; rb += bmax) {
          const int64_t bn = std::min(bmax, r1 - rb);
          EvalBlock(p, inputs, rb, bn, scratch, out);
          if (stash == nullptr) continue;
          // Checkpoint this block's transcendental outputs (disjoint row
          // spans per chunk, so the parallel writes never overlap).
          for (size_t i = 0; i < p.instrs.size(); ++i) {
            const int32_t s = stash->stash_of[i];
            if (s < 0) continue;
            const float* src =
                i == p.instrs.size() - 1
                    ? out + rb * d
                    : scratch + static_cast<int64_t>(i) * bn * d;
            Set(stash->bufs[static_cast<size_t>(s)].data() + rb * d, src,
                bn * d);
          }
        }
      });
}

void Backward(const Program& p, const float* const* inputs,
              const float* out_grad, float* const* input_grads,
              const Stash* stash) {
  if (stash != nullptr && stash->bufs.empty()) stash = nullptr;
  const int64_t d = p.cols;
  const int64_t rows = p.rows;
  const int64_t n_instr = static_cast<int64_t>(p.instrs.size());

  // Row-broadcast leaf gradients are shared across rows, so the parallel
  // sweep stages each consuming instruction's per-row contribution into a
  // full-shape buffer; the stages are reduced serially after the sweep in
  // the same (reverse-instruction, ascending-row) order the eager
  // row-broadcast backward closures reduce in.
  std::vector<int32_t> stage_of(static_cast<size_t>(n_instr), -1);
  std::vector<Tensor> stages;
  for (int64_t i = 0; i < n_instr; ++i) {
    const Instr& ins = p.instrs[i];
    if (ins.bcast == Bcast::kRow && input_grads[ins.b] != nullptr) {
      stage_of[static_cast<size_t>(i)] = static_cast<int32_t>(stages.size());
      stages.push_back(NewTensor({rows, d}));  // zero-filled
    }
  }

  const int64_t bmax = BlockRows(p);
  const std::vector<uint8_t> needed = BackwardNeeded(p, stash);
  runtime::ParallelFor(0, rows, runtime::RowGrain(3 * RowCost(p)), [&](
                                                                       int64_t
                                                                           r0,
                                                                       int64_t
                                                                           r1) {
    float* values = ThreadScratch(static_cast<size_t>(n_instr * bmax * d), 0);
    float* adjoint =
        ThreadScratch(static_cast<size_t>(n_instr * bmax * d), 1);
    for (int64_t rb = r0; rb < r1; rb += bmax) {
      const int64_t bn = std::min(bmax, r1 - rb);
      const int64_t vol = bn * d;
      // Recompute the forward intermediates the derivative sweep will read
      // (bit-identical to the forward pass: the surviving instructions run
      // over the same spans), then overlay the checkpointed transcendental
      // outputs — the forward's own bits — over their scratch slots.
      EvalBlock(p, inputs, rb, bn, values, nullptr, needed.data());
      if (stash != nullptr) {
        for (size_t i = 0; i < p.instrs.size(); ++i) {
          const int32_t s = stash->stash_of[i];
          if (s < 0) continue;
          Set(values + static_cast<int64_t>(i) * vol,
              stash->bufs[static_cast<size_t>(s)].data() + rb * d, vol);
        }
      }
      std::fill(adjoint, adjoint + n_instr * vol, 0.0f);
      Set(adjoint + (n_instr - 1) * vol, out_grad + rb * d, vol);
      for (int64_t i = n_instr - 1; i >= 0; --i) {
        const Instr& ins = p.instrs[i];
        const float* adj = adjoint + i * vol;
        const float* ov = values + i * vol;
        if (!Rowwise(p, ins)) {
          // Whole-block fast path: every operand and every destination is
          // contiguous across the block's rows (per-element accumulation
          // order is unchanged, so bits are too).
          auto dst = [&](int32_t slot) -> float* {
            if (slot >= p.num_inputs) {
              return adjoint +
                     static_cast<int64_t>(slot - p.num_inputs) * vol;
            }
            float* g = input_grads[slot];
            return g == nullptr ? nullptr : g + rb * d;
          };
          float* da = dst(ins.a);
          const float* av = BlockSpan(p, inputs, values, rb, bn,
                                      ins.a);
          switch (ins.op) {
            case OpKind::kAdd: {
              if (da != nullptr) Add(da, adj, vol);
              float* db = dst(ins.b);
              if (db != nullptr) Add(db, adj, vol);
              break;
            }
            case OpKind::kSub: {
              if (da != nullptr) Add(da, adj, vol);
              float* db = dst(ins.b);
              if (db != nullptr) Sub(db, adj, vol);
              break;
            }
            case OpKind::kMul: {
              const float* bv = BlockSpan(p, inputs, values, rb, bn,
                                          ins.b);
              if (da != nullptr) MulAdd(da, adj, bv, vol);
              float* db = dst(ins.b);
              if (db != nullptr) MulAdd(db, adj, av, vol);
              break;
            }
            case OpKind::kScalarMul:
              if (da != nullptr) Axpy(da, ins.scalar, adj, vol);
              break;
            case OpKind::kScalarAdd:
              if (da != nullptr) Add(da, adj, vol);
              break;
            case OpKind::kSigmoid:
              if (da != nullptr) SigmoidBackward(da, adj, ov, vol);
              break;
            case OpKind::kTanh:
              if (da != nullptr) {
                for (int64_t c = 0; c < vol; ++c) {
                  da[c] += adj[c] * (1.0f - ov[c] * ov[c]);
                }
              }
              break;
            case OpKind::kRelu:
              if (da != nullptr) {
                for (int64_t c = 0; c < vol; ++c) {
                  da[c] += adj[c] * (av[c] > 0.0f ? 1.0f : 0.0f);
                }
              }
              break;
            case OpKind::kExp:
              if (da != nullptr) {
                for (int64_t c = 0; c < vol; ++c) da[c] += adj[c] * ov[c];
              }
              break;
            case OpKind::kCos:
              if (da != nullptr) {
                for (int64_t c = 0; c < vol; ++c) {
                  da[c] += adj[c] * -std::sin(av[c]);
                }
              }
              break;
            case OpKind::kSin:
              if (da != nullptr) {
                for (int64_t c = 0; c < vol; ++c) {
                  da[c] += adj[c] * std::cos(av[c]);
                }
              }
              break;
          }
          continue;
        }
        for (int64_t r = rb; r < rb + bn; ++r) {
          const float* adj_row = adj + (r - rb) * d;
          const float* ov_row = ov + (r - rb) * d;
          // Resolves the destination span for a contribution to `slot`.
          auto dst = [&](int32_t slot) -> GradDst {
            if (slot >= p.num_inputs) {
              return {adjoint +
                          (static_cast<int64_t>(slot - p.num_inputs) * bn +
                           (r - rb)) *
                              d,
                      false};
            }
            float* g = input_grads[slot];
            if (g == nullptr) return {nullptr, false};
            switch (p.input_bcast[slot]) {
              case Bcast::kNone:
                return {g + r * d, false};
              case Bcast::kRow:
                return {stages[static_cast<size_t>(
                                    stage_of[static_cast<size_t>(i)])]
                                .data() +
                            r * d,
                        false};
              case Bcast::kCol:
                return {g + r, true};
            }
            return {nullptr, false};
          };
          const GradDst da = dst(ins.a);
          const float* av = RowPtr(p, inputs, values, rb, bn, r,
                                   ins.a);
          switch (ins.op) {
            case OpKind::kAdd: {
              if (da.span != nullptr) Add(da.span, adj_row, d);
              const GradDst db = dst(ins.b);
              if (db.span != nullptr) Add(db.span, adj_row, d);
              break;
            }
            case OpKind::kSub: {
              if (da.span != nullptr) Add(da.span, adj_row, d);
              const GradDst db = dst(ins.b);
              if (db.span != nullptr) Sub(db.span, adj_row, d);
              break;
            }
            case OpKind::kMul: {
              const float* bv = RowPtr(p, inputs, values, rb, bn, r,
                                       ins.b);
              if (ins.bcast == Bcast::kCol) {
                if (da.span != nullptr) Axpy(da.span, bv[0], adj_row, d);
                const GradDst db = dst(ins.b);
                if (db.span != nullptr) db.span[0] += Dot(adj_row, av, d);
              } else {
                if (da.span != nullptr) MulAdd(da.span, adj_row, bv, d);
                const GradDst db = dst(ins.b);
                if (db.span != nullptr) MulAdd(db.span, adj_row, av, d);
              }
              break;
            }
            case OpKind::kScalarMul:
              if (da.span != nullptr) Axpy(da.span, ins.scalar, adj_row, d);
              break;
            case OpKind::kScalarAdd:
              if (da.span != nullptr) Add(da.span, adj_row, d);
              break;
            case OpKind::kSigmoid:
              if (da.span != nullptr) {
                SigmoidBackward(da.span, adj_row, ov_row, d);
              }
              break;
            case OpKind::kTanh:
              if (da.span != nullptr) {
                for (int64_t c = 0; c < d; ++c) {
                  da.span[c] += adj_row[c] * (1.0f - ov_row[c] * ov_row[c]);
                }
              }
              break;
            case OpKind::kRelu:
              if (da.span != nullptr) {
                for (int64_t c = 0; c < d; ++c) {
                  da.span[c] += adj_row[c] * (av[c] > 0.0f ? 1.0f : 0.0f);
                }
              }
              break;
            case OpKind::kExp:
              if (da.span != nullptr) {
                for (int64_t c = 0; c < d; ++c) {
                  da.span[c] += adj_row[c] * ov_row[c];
                }
              }
              break;
            case OpKind::kCos:
              if (da.span != nullptr) {
                for (int64_t c = 0; c < d; ++c) {
                  da.span[c] += adj_row[c] * -std::sin(av[c]);
                }
              }
              break;
            case OpKind::kSin:
              if (da.span != nullptr) {
                for (int64_t c = 0; c < d; ++c) {
                  da.span[c] += adj_row[c] * std::cos(av[c]);
                }
              }
              break;
          }
        }
      }
    }
  });

  // Serial row-broadcast reductions, reverse instruction order (matching
  // the eager tape's reverse-topological node order), ascending rows.
  for (int64_t i = n_instr - 1; i >= 0; --i) {
    const int32_t s = stage_of[static_cast<size_t>(i)];
    if (s < 0) continue;
    float* g = input_grads[p.instrs[i].b];
    const float* stage = stages[static_cast<size_t>(s)].data();
    for (int64_t r = 0; r < rows; ++r) Add(g, stage + r * d, d);
  }
}

}  // namespace benchtemp::tensor::kernels::fused
