#include "src/planner/shape.h"

#include <algorithm>

namespace sac::planner {

using comp::Expr;
using comp::ExprPtr;
using comp::Pattern;
using comp::Qualifier;

namespace {

Status Err(comp::Pos pos, const std::string& msg) {
  return Status::PlanError(msg + " at " + pos.ToString());
}

bool IsVar(const ExprPtr& e) { return e->kind == Expr::Kind::kVar; }

}  // namespace

Result<GenInfo> AnalyzeGenerator(const Qualifier& q) {
  GenInfo g;
  g.pos = q.pos;
  if (q.expr->kind != Expr::Kind::kVar) {
    return Err(q.pos, "generator source is not a named array");
  }
  g.source = q.expr->str_val;
  const auto& p = q.pattern;
  if (p->kind != Pattern::Kind::kTuple || p->elems.size() != 2) {
    return Err(q.pos, "generator pattern must be (index, value)");
  }
  const auto& keyp = p->elems[0];
  const auto& valp = p->elems[1];
  if (valp->kind == Pattern::Kind::kVar) {
    g.val = valp->var;
  } else if (valp->kind != Pattern::Kind::kWildcard) {
    return Err(q.pos, "generator value pattern must be a variable");
  }
  if (keyp->kind == Pattern::Kind::kVar) {
    g.idx.push_back(keyp->var);
  } else if (keyp->kind == Pattern::Kind::kTuple) {
    for (const auto& ip : keyp->elems) {
      if (ip->kind != Pattern::Kind::kVar) {
        return Err(q.pos, "index pattern must bind plain variables");
      }
      g.idx.push_back(ip->var);
    }
  } else {
    return Err(q.pos, "unsupported generator index pattern");
  }
  if (g.idx.empty() || g.idx.size() > 2) {
    return Err(q.pos, "only 1- and 2-dimensional arrays are supported");
  }
  return g;
}

std::optional<QueryShape::IdxRef> QueryShape::FindIndexVar(
    const std::string& v) const {
  for (size_t g = 0; g < gens.size(); ++g) {
    for (size_t p = 0; p < gens[g].idx.size(); ++p) {
      if (gens[g].idx[p] == v) return IdxRef{g, p};
    }
  }
  return std::nullopt;
}

std::optional<QueryShape::IdxRef> QueryShape::ResolveVar(
    const std::string& v) const {
  if (auto direct = FindIndexVar(v)) return direct;
  for (const auto& [a, b] : index_eqs) {
    if (a == v) {
      if (auto r = FindIndexVar(b)) return r;
    }
    if (b == v) {
      if (auto r = FindIndexVar(a)) return r;
    }
  }
  return std::nullopt;
}

comp::ExprPtr QueryShape::InlineLets(const comp::ExprPtr& e) const {
  comp::ExprPtr cur = e;
  // Lets may reference earlier lets; substitute in reverse order.
  for (auto it = lets.rbegin(); it != lets.rend(); ++it) {
    cur = comp::SubstituteVar(cur, it->var, it->expr);
  }
  return cur;
}

Result<QueryShape> AnalyzeShape(const comp::ExprPtr& e) {
  QueryShape s;
  s.pos = e->pos;
  ExprPtr comp_expr = e;
  if (e->kind == Expr::Kind::kBuild) {
    s.builder = e->str_val;
    for (size_t i = 1; i < e->children.size(); ++i) {
      s.builder_args.push_back(e->children[i]);
    }
    comp_expr = e->children[0];
  }
  if (comp_expr->kind != Expr::Kind::kComprehension) {
    return Err(e->pos, "not a comprehension");
  }

  for (const Qualifier& q : comp_expr->quals) {
    switch (q.kind) {
      case Qualifier::Kind::kGenerator: {
        if (s.has_group_by) {
          return Err(q.pos, "generator after group-by is unsupported");
        }
        SAC_ASSIGN_OR_RETURN(GenInfo g, AnalyzeGenerator(q));
        s.gens.push_back(std::move(g));
        break;
      }
      case Qualifier::Kind::kLet: {
        if (q.pattern->kind != Pattern::Kind::kVar) {
          return Err(q.pos, "let pattern must be a single variable");
        }
        s.lets.push_back(LetInfo{q.pattern->var, q.expr});
        break;
      }
      case Qualifier::Kind::kGuard: {
        // Classify v1 == v2 between index variables.
        const ExprPtr& g = q.expr;
        bool is_index_eq = false;
        if (g->kind == Expr::Kind::kBinary && g->bin_op == comp::BinOp::kEq &&
            IsVar(g->children[0]) && IsVar(g->children[1])) {
          is_index_eq = true;
        }
        if (is_index_eq) {
          s.index_eqs.emplace_back(g->children[0]->str_val,
                                   g->children[1]->str_val);
        } else {
          s.guards.push_back(g);
        }
        break;
      }
      case Qualifier::Kind::kGroupBy: {
        if (s.has_group_by) {
          return Err(q.pos, "multiple group-bys are unsupported");
        }
        if (q.expr) {
          return Err(q.pos, "group-by key sugar must be desugared first");
        }
        s.has_group_by = true;
        s.group_key_vars = q.pattern->Vars();
        if (s.group_key_vars.empty()) {
          return Err(q.pos, "empty group-by key");
        }
        break;
      }
    }
  }

  // The head must be (key, value) for array builders.
  const ExprPtr& head = comp_expr->children[0];
  if (head->kind == Expr::Kind::kTuple && head->children.size() == 2) {
    s.head_key = head->children[0];
    s.head_val = head->children[1];
  } else {
    return Err(head->pos, "comprehension head must be a (key, value) pair");
  }
  return s;
}

}  // namespace sac::planner
