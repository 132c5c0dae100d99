#ifndef CTXPREF_DB_RELATION_H_
#define CTXPREF_DB_RELATION_H_

#include <vector>

#include "db/predicate.h"
#include "db/schema.h"
#include "db/tuple.h"
#include "util/status.h"

namespace ctxpref::db {

/// An append-only row-store relation R(A1, ..., An).
///
/// Deliberately minimal: the paper's query machinery needs append,
/// scan, and σ (selection) — `Rank_CS` evaluates the attribute clauses
/// of resolved preferences as selections over R and annotates the
/// qualifying tuples with scores.
class Relation {
 public:
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Appends a row. Errors with InvalidArgument on arity or type
  /// mismatch against the schema.
  Status Append(Tuple row);

  /// The row with the given id; ids are dense in [0, size()).
  const Tuple& row(RowId id) const { return rows_[id]; }

  /// σ_pred(R): ids of all rows satisfying `pred`, in row order.
  std::vector<RowId> Select(const Predicate& pred) const;

  /// Ids of all rows satisfying every predicate (conjunction).
  std::vector<RowId> SelectAll(const std::vector<Predicate>& preds) const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace ctxpref::db

#endif  // CTXPREF_DB_RELATION_H_
