// Parameter records: the payload that checkpoints trained models (ECT-Price,
// the ECT-DRL actor) — a tensor count, then each tensor's name, shape and
// values, written with the common/codec little-endian helpers.  A record
// payload carries no magic or checksum of its own; a file format that
// stores one seals it in a codec container (DrlCheckpoint's params section).
#pragma once

#include "nn/layers.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace ecthub::nn {

/// Encodes all parameter tensors (name, shape, values).
[[nodiscard]] std::string encode_parameters(const std::vector<ConstParameter>& params);

/// Same records from mutable views — byte-identical output for the same
/// tensors.
[[nodiscard]] std::string encode_parameters(const std::vector<Parameter>& params);

/// Reads records back into `params`.  Count, names and shapes must match
/// exactly (same model architecture) and the payload must end with the
/// last tensor; throws codec::FormatError otherwise, before any length
/// taken from the payload sizes an allocation.
void decode_parameters(std::string_view payload, std::vector<Parameter>& params);

}  // namespace ecthub::nn
