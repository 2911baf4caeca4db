#include "nn/serialize.hpp"

#include "common/codec.hpp"

#include <stdexcept>

namespace ecthub::nn {

std::string encode_parameters(const std::vector<ConstParameter>& params) {
  std::string out;
  codec::put_u64(out, params.size());
  for (const auto& p : params) {
    if (p.value == nullptr) throw std::invalid_argument("encode_parameters: null tensor");
    codec::put_string(out, p.name);
    codec::put_u64(out, p.value->rows());
    codec::put_u64(out, p.value->cols());
    for (const double v : p.value->data()) codec::put_f64(out, v);
  }
  return out;
}

std::string encode_parameters(const std::vector<Parameter>& params) {
  std::vector<ConstParameter> views;
  views.reserve(params.size());
  for (const auto& p : params) views.push_back({p.name, p.value});
  return encode_parameters(views);
}

void decode_parameters(std::string_view payload, std::vector<Parameter>& params) {
  codec::Reader in(payload, "parameter records");
  if (in.u64() != params.size()) in.fail("parameter count mismatch");
  for (auto& p : params) {
    if (p.value == nullptr) throw std::invalid_argument("decode_parameters: null tensor");
    if (in.str() != p.name) in.fail("parameter name mismatch (expected '" + p.name + "')");
    const std::uint64_t rows = in.u64();
    const std::uint64_t cols = in.u64();
    if (rows != p.value->rows() || cols != p.value->cols()) {
      in.fail("shape mismatch for '" + p.name + "'");
    }
    for (double& v : p.value->data()) v = in.f64();
  }
  in.expect_end();
}

}  // namespace ecthub::nn
