#include "db/relation.h"

namespace ctxpref::db {

Status Relation::Append(Tuple row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, schema expects " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "value for column '" + schema_.column(i).name + "' has type " +
          ColumnTypeToString(row[i].type()) + ", expected " +
          ColumnTypeToString(schema_.column(i).type));
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

std::vector<RowId> Relation::Select(const Predicate& pred) const {
  std::vector<RowId> out;
  for (RowId id = 0; id < rows_.size(); ++id) {
    if (pred.Eval(rows_[id])) out.push_back(id);
  }
  return out;
}

std::vector<RowId> Relation::SelectAll(
    const std::vector<Predicate>& preds) const {
  std::vector<RowId> out;
  for (RowId id = 0; id < rows_.size(); ++id) {
    bool all = true;
    for (const Predicate& p : preds) {
      if (!p.Eval(rows_[id])) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(id);
  }
  return out;
}

}  // namespace ctxpref::db
