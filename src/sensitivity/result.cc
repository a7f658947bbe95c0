#include "sensitivity/result.h"

namespace lsens {

const AtomSensitivity* SensitivityResult::MostSensitive() const {
  if (argmax_atom < 0 || argmax_atom >= static_cast<int>(atoms.size())) {
    return nullptr;
  }
  return &atoms[static_cast<size_t>(argmax_atom)];
}

void SensitivityResult::SelectMostSensitive() {
  local_sensitivity = Count::Zero();
  argmax_atom = -1;
  for (size_t a = 0; a < atoms.size(); ++a) {
    if (atoms[a].max_sensitivity > local_sensitivity) {
      local_sensitivity = atoms[a].max_sensitivity;
      argmax_atom = static_cast<int>(a);
    }
  }
}

std::string SensitivityResult::DescribeMostSensitive(
    const AttributeCatalog& attrs, const Dictionary* dict) const {
  const AtomSensitivity* best = MostSensitive();
  if (best == nullptr) return "(no sensitive tuple: LS = 0)";
  std::string out = best->relation + "(";
  bool first = true;
  auto append_value = [&](AttrId var, const std::string& value) {
    if (!first) out += ", ";
    first = false;
    out += attrs.Name(var) + "=" + value;
  };
  for (size_t i = 0; i < best->table_attrs.size(); ++i) {
    std::string value = "?";
    if (i < best->argmax.size()) {
      Value v = best->argmax[i];
      value = (dict != nullptr && dict->ContainsValue(v)) ? dict->String(v)
                                                          : std::to_string(v);
    }
    append_value(best->table_attrs[i], value);
  }
  for (AttrId var : best->free_vars) append_value(var, "*");
  out += ") with sensitivity " + local_sensitivity.ToString();
  if (best->approximate) out += " (upper bound)";
  return out;
}

}  // namespace lsens
