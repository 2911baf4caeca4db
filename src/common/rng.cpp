#include "common/rng.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

namespace ecthub {

std::uint64_t mix_seed(std::uint64_t base_seed, std::uint64_t stream) noexcept {
  // splitmix64 finalizer over a golden-ratio stride; (stream + 1) keeps
  // stream 0 from collapsing onto the raw base seed.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// MT19937-64 parameters (Matsumoto & Nishimura), as in the standard
// library's mt19937_64.
constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

// One twist step: joins the top 33 bits of `upper` to the low 31 bits of
// `lower` and applies the matrix term when the joined word is odd.
constexpr std::uint64_t twisted(std::uint64_t far, std::uint64_t upper,
                                std::uint64_t lower) noexcept {
  const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) noexcept : pos_(kN) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() noexcept {
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kN - kM; ++k) x[k] = twisted(x[k + kM], x[k], x[k + 1]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x[k] = twisted(x[k + kM - kN], x[k], x[k + 1]);
  }
  x[kN - 1] = twisted(x[kM - 1], x[kN - 1], x[0]);
  pos_ = 0;
}

namespace detail {

// Generated once at 60 significant digits: kZigR solves the 256-layer
// closure (the recurrence f(x[i+1]) = f(x[i]) + kZigV / x[i] from x[1] = R
// reaches f(x[255]) + kZigV / x[255] = 1), then each value is rounded to
// the nearest double.  tests/test_common.cpp (RngNormals.*) checks both
// identities on these literals.
const std::array<double, kZigLayers + 1> kZigX = {
    0x1.f493b7815d982p+1, 0x1.d3bb48209ad33p+1, 0x1.b981f3878fdb0p+1, 0x1.a8fdc78947759p+1,
    0x1.9cbee014057aap+1, 0x1.92ee0946f4496p+1, 0x1.8ab0fbfaa7c14p+1, 0x1.839030529f233p+1,
    0x1.7d42df4d6ce8bp+1, 0x1.7799556090672p+1, 0x1.72728f05f7a33p+1, 0x1.6db6b8d09e231p+1,
    0x1.69540be9fe5c2p+1, 0x1.653ce7b006aeap+1, 0x1.61669cf861e4bp+1, 0x1.5dc8a243ad0fep+1,
    0x1.5a5c08b718dd9p+1, 0x1.571b1a94ae41cp+1, 0x1.54011523a7e43p+1, 0x1.5109f53e9ac42p+1,
    0x1.4e3250dcd8903p+1, 0x1.4b7739d6b5a28p+1, 0x1.48d62759c43bdp+1, 0x1.464ce44a73a16p+1,
    0x1.43d9815545e94p+1, 0x1.417a49cb9e5dbp+1, 0x1.3f2dbaa60f475p+1, 0x1.3cf27b31704a6p+1,
    0x1.3ac7570ae88fap+1, 0x1.38ab39256410ap+1, 0x1.369d27a33a840p+1, 0x1.349c405ae12a3p+1,
    0x1.32a7b5e68a4a3p+1, 0x1.30becd256aeeep+1, 0x1.2ee0db1a978f5p+1, 0x1.2d0d43196db97p+1,
    0x1.2b437532a0a53p+1, 0x1.2982ecd770e78p+1, 0x1.27cb2faa8592ep+1, 0x1.261bcc77658e0p+1,
    0x1.24745a4ac9c24p+1, 0x1.22d477a6fd3efp+1, 0x1.213bc9d04cc82p+1, 0x1.1fa9fc2e2d901p+1,
    0x1.1e1ebfbe4ae39p+1, 0x1.1c99ca971a695p+1, 0x1.1b1ad777f2f8fp+1, 0x1.19a1a564eebadp+1,
    0x1.182df74d21262p+1, 0x1.16bf93b9deef5p+1, 0x1.1556448602e3dp+1, 0x1.13f1d69c4096fp+1,
    0x1.129219bbb5d37p+1, 0x1.1136e04207043p+1, 0x1.0fdffefa69fb8p+1, 0x1.0e8d4cf116594p+1,
    0x1.0d3ea34aa3d32p+1, 0x1.0bf3dd1eed449p+1, 0x1.0aacd7571c0c5p+1, 0x1.0969708e8a255p+1,
    0x1.082988f632e18p+1, 0x1.06ed023a72669p+1, 0x1.05b3bf6adb37ep+1, 0x1.047da4e3ef5c7p+1,
    0x1.034a983a902abp+1, 0x1.021a8028fc947p+1, 0x1.00ed447d3a075p+1, 0x1.ff859c118f60bp+0,
    0x1.fd360d22fe785p+0, 0x1.faebb187122bfp+0, 0x1.f8a6604899782p+0, 0x1.f665f20c90168p+0,
    0x1.f42a40fb74d6dp+0, 0x1.f1f328ac25321p+0, 0x1.efc086101eca9p+0, 0x1.ed9237610a73ap+0,
    0x1.eb681c0f76f08p+0, 0x1.e94214b2abf09p+0, 0x1.e72002f97fe23p+0, 0x1.e501c99c1d186p+0,
    0x1.e2e74c4ea46f3p+0, 0x1.e0d06fb49d219p+0, 0x1.debd195522e34p+0, 0x1.dcad2f8fc490cp+0,
    0x1.daa0999206e6ep+0, 0x1.d8973f4d7fba4p+0, 0x1.d691096e7f123p+0, 0x1.d48de1533c647p+0,
    0x1.d28db1037ef20p+0, 0x1.d0906328b8f6ep+0, 0x1.ce95e3068e037p+0, 0x1.cc9e1c73bd690p+0,
    0x1.caa8fbd36a2abp+0, 0x1.c8b66e0eba617p+0, 0x1.c6c6608ec8705p+0, 0x1.c4d8c136e0d1dp+0,
    0x1.c2ed7e5f07a2dp+0, 0x1.c10486cec16a0p+0, 0x1.bf1dc9b81ae82p+0, 0x1.bd3936b2ec0a2p+0,
    0x1.bb56bdb85256ep+0, 0x1.b9764f1e5f73dp+0, 0x1.b797db93f8928p+0, 0x1.b5bb541ce3d04p+0,
    0x1.b3e0aa0e00c01p+0, 0x1.b207cf09a985cp+0, 0x1.b030b4fc3a11bp+0, 0x1.ae5b4e18bb338p+0,
    0x1.ac878cd5af5cfp+0, 0x1.aab563e9ff10ap+0, 0x1.a8e4c64a0313fp+0, 0x1.a715a724aa9a7p+0,
    0x1.a547f9e0bbb8bp+0, 0x1.a37bb21a2c85ep+0, 0x1.a1b0c39f93696p+0, 0x1.9fe7226fad24dp+0,
    0x1.9e1ec2b6f7414p+0, 0x1.9c5798cd5d92ep+0, 0x1.9a919933f99c1p+0, 0x1.98ccb892e2a33p+0,
    0x1.9708ebb70d5efp+0, 0x1.954627903a28bp+0, 0x1.9384612ef0afep+0, 0x1.91c38dc288349p+0,
    0x1.9003a2973b591p+0, 0x1.8e44951446a28p+0, 0x1.8c865aba10c9dp+0, 0x1.8ac8e9205c044p+0,
    0x1.890c35f47f72ep+0, 0x1.875036f7a7ec7p+0, 0x1.8594e1fd1f5bep+0, 0x1.83da2ce899f16p+0,
    0x1.82200dac88677p+0, 0x1.80667a486ea1fp+0, 0x1.7ead68c73dee7p+0, 0x1.7cf4cf3db22fcp+0,
    0x1.7b3ca3c8b140ap+0, 0x1.7984dc8babd94p+0, 0x1.77cd6faeff44ap+0, 0x1.7616535e57320p+0,
    0x1.745f7dc70eeddp+0, 0x1.72a8e516914c7p+0, 0x1.70f27f78b68ecp+0, 0x1.6f3c43161f856p+0,
    0x1.6d8626128d354p+0, 0x1.6bd01e8b343bdp+0, 0x1.6a1a22950b2b3p+0, 0x1.6864283b13139p+0,
    0x1.66ae257c99674p+0, 0x1.64f8104b7260dp+0, 0x1.6341de8a2b0a4p+0, 0x1.618b860a31fc5p+0,
    0x1.5fd4fc89f5e39p+0, 0x1.5e1e37b2f8cd4p+0, 0x1.5c672d17d733fp+0, 0x1.5aafd23241b5ap+0,
    0x1.58f81c60e8515p+0, 0x1.574000e555f79p+0, 0x1.558774e1bb2c9p+0, 0x1.53ce6d56a6650p+0,
    0x1.5214df20a8b5cp+0, 0x1.505abef5e5563p+0, 0x1.4ea001638a606p+0, 0x1.4ce49acb311ddp+0,
    0x1.4b287f602415ep+0, 0x1.496ba32488f30p+0, 0x1.47adf9e66c338p+0, 0x1.45ef773cac75ep+0,
    0x1.44300e83c30a6p+0, 0x1.426fb2da6745fp+0, 0x1.40ae571e09e76p+0, 0x1.3eebede725a85p+0,
    0x1.3d28698561de3p+0, 0x1.3b63bbfb83d06p+0, 0x1.399dd6fb2b267p+0, 0x1.37d6abe05586cp+0,
    0x1.360e2baca52d7p+0, 0x1.3444470265ea4p+0, 0x1.3278ee1f4b933p+0, 0x1.30ac10d6e48dap+0,
    0x1.2edd9e8cba990p+0, 0x1.2d0d862e1b855p+0, 0x1.2b3bb62b82edbp+0, 0x1.29681c719d71dp+0,
    0x1.2792a661dd381p+0, 0x1.25bb40ca96bfep+0, 0x1.23e1d7de9c322p+0, 0x1.2206572c4c6ecp+0,
    0x1.2028a9940a0a3p+0, 0x1.1e48b93e0d431p+0, 0x1.1c666f8f82acfp+0, 0x1.1a81b51ee6d8bp+0,
    0x1.189a71a78da37p+0, 0x1.16b08bfc42020p+0, 0x1.14c3e9f8e9143p+0, 0x1.12d4707310fc1p+0,
    0x1.10e20329515f1p+0, 0x1.0eec84b16086fp+0, 0x1.0cf3d664bcc83p+0, 0x1.0af7d84bc6116p+0,
    0x1.08f869071f40fp+0, 0x1.06f565b72a014p+0, 0x1.04eea9e16a5ffp+0, 0x1.02e40f5398f9dp+0,
    0x1.00d56e04234eep+0, 0x1.fd8537dfa2eb1p-1, 0x1.f956d9e87d7b2p-1, 0x1.f51f654d8f68cp-1,
    0x1.f0de784f0622ap-1, 0x1.ec93abdf982d2p-1, 0x1.e83e9337a6f04p-1, 0x1.e3debb5d2ee02p-1,
    0x1.df73aa9f17656p-1, 0x1.dafce0023b8c8p-1, 0x1.d679d29e41f14p-1, 0x1.d1e9f0e80b74bp-1,
    0x1.cd4c9fe72268fp-1, 0x1.c8a13a5323b66p-1, 0x1.c3e70f9594ef8p-1, 0x1.bf1d62abf8239p-1,
    0x1.ba4368e529f40p-1, 0x1.b558487427a2fp-1, 0x1.b05b16d136ca2p-1, 0x1.ab4ad6e101636p-1,
    0x1.a62676d77cd5fp-1, 0x1.a0eccdca4a731p-1, 0x1.9b9c98e38c54dp-1, 0x1.96347822c1ef0p-1,
    0x1.90b2ea94ecf9ep-1, 0x1.8b1649e7b769fp-1, 0x1.855cc53430a7dp-1, 0x1.7f845ad46f549p-1,
    0x1.798ad10b32a7ep-1, 0x1.736dad346f8adp-1, 0x1.6d2a292000576p-1, 0x1.66bd261a37c44p-1,
    0x1.60231cfd97ef1p-1, 0x1.59580a707ce9cp-1, 0x1.52575621ad379p-1, 0x1.4b1bb363dfeadp-1,
    0x1.439ef8dff9b5ap-1, 0x1.3bd9ec1a2b134p-1, 0x1.33c3fc05791fap-1, 0x1.2b52e3863d885p-1,
    0x1.227a28f7a1afap-1, 0x1.192a69741367dp-1, 0x1.0f5053b025d4ap-1, 0x1.04d32278ebbb4p-1,
    0x1.f32482d4cd5d0p-2, 0x1.dac2f5a747281p-2, 0x1.c004d2f386207p-2, 0x1.a230c2e4cd0cbp-2,
    0x1.801fce82fa71ap-2, 0x1.57cb938443b71p-2, 0x1.250af3c2c5bc6p-2, 0x1.b8d0be3fdf702p-3,
    0.0,
};

const std::array<double, kZigLayers + 1> kZigF = {
    0x1.f4a946f13842fp-12, 0x1.4a605b6b9f70dp-10, 0x1.55f9f43c1b070p-9, 0x1.08a1f03b0b205p-8,
    0x1.69ea8d90cb864p-8, 0x1.ce160f8ec683cp-8, 0x1.1a59229952f95p-7, 0x1.4eb96421acfe7p-7,
    0x1.841040d8da47ep-7, 0x1.ba48d274f8fb3p-7, 0x1.f152a4f72dd53p-7, 0x1.149033460301ap-6,
    0x1.30d388dab5e1ap-6, 0x1.4d6eaf2fbb067p-6, 0x1.6a5daf40bbf87p-6, 0x1.879d1b600c10bp-6,
    0x1.a529f4e22ebf4p-6, 0x1.c301983cd0912p-6, 0x1.e121adb828c69p-6, 0x1.ff881d718a5b5p-6,
    0x1.0f1982e968009p-5, 0x1.1e9059f1f6ab6p-5, 0x1.2e27ce83df495p-5, 0x1.3ddf2ce98eec7p-5,
    0x1.4db5d0e11275cp-5, 0x1.5dab23cf2add1p-5, 0x1.6dbe9b398d062p-5, 0x1.7defb77af271cp-5,
    0x1.8e3e02a68b5a9p-5, 0x1.9ea90f9295561p-5, 0x1.af30790385f6fp-5, 0x1.bfd3e0f282a2cp-5,
    0x1.d092efeadf162p-5, 0x1.e16d547b25185p-5, 0x1.f262c2b6c6e33p-5, 0x1.01b979e30e496p-4,
    0x1.0a4ed2c159622p-4, 0x1.12f14d0f2179dp-4, 0x1.1ba0cbe97897ep-4, 0x1.245d344dd0d8fp-4,
    0x1.2d266cf9b310dp-4, 0x1.35fc5e4d93e69p-4, 0x1.3edef23269a81p-4, 0x1.47ce1401b2212p-4,
    0x1.50c9b06fa2babp-4, 0x1.59d1b5774669dp-4, 0x1.62e6124854d10p-4, 0x1.6c06b73694a46p-4,
    0x1.753395aaa116dp-4, 0x1.7e6ca013eefccp-4, 0x1.87b1c9dbf2846p-4, 0x1.9103075a4a09fp-4,
    0x1.9a604dc9d5b0bp-4, 0x1.a3c9933ea627bp-4, 0x1.ad3ece9caf627p-4, 0x1.b6bff78f2e228p-4,
    0x1.c04d0680b100ap-4, 0x1.c9e5f493b7404p-4, 0x1.d38abb9bd91dcp-4, 0x1.dd3b56176e88bp-4,
    0x1.e6f7bf29aa546p-4, 0x1.f0bff29520e16p-4, 0x1.fa93ecb6b222bp-4, 0x1.0239d54067d29p-3,
    0x1.072f94bb8bf84p-3, 0x1.0c2b33d5209b9p-3, 0x1.112cb1da26eb8p-3, 0x1.16340e5a82d62p-3,
    0x1.1b41492757d42p-3, 0x1.2054625183c34p-3, 0x1.256d5a2835eb6p-3, 0x1.2a8c3137a071bp-3,
    0x1.2fb0e847c2a65p-3, 0x1.34db805b4ab89p-3, 0x1.3a0bfaae8d7eep-3, 0x1.3f4258b6931afp-3,
    0x1.447e9c20375d6p-3, 0x1.49c0c6cf5ce30p-3, 0x1.4f08dade31fc6p-3, 0x1.5456da9c8683bp-3,
    0x1.59aac88f31d74p-3, 0x1.5f04a76f88400p-3, 0x1.64647a2adf1a4p-3, 0x1.69ca43e21f261p-3,
    0x1.6f3607e964719p-3, 0x1.74a7c9c7ab5a8p-3, 0x1.7a1f8d368a323p-3, 0x1.7f9d5621f7174p-3,
    0x1.852128a819a38p-3, 0x1.8aab09192815ap-3, 0x1.903afbf74fa68p-3, 0x1.95d105f6a7c27p-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.a10f7322d7e3cp-3, 0x1.a6b7e0b19267cp-3, 0x1.ac667a2571805p-3,
    0x1.b21b452ccd13ap-3, 0x1.b7d647a8731abp-3, 0x1.bd9787abe18a2p-3, 0x1.c35f0b7d89d46p-3,
    0x1.c92cd9971df52p-3, 0x1.cf00f8a5e6fcap-3, 0x1.d4db6f8b2514cp-3, 0x1.dabc455c79006p-3,
    0x1.e0a3816457181p-3, 0x1.e6912b2283cd9p-3, 0x1.ec854a4c99c3ep-3, 0x1.f27fe6ce998ccp-3,
    0x1.f88108cb8322fp-3, 0x1.fe88b89df93bcp-3, 0x1.024b7f6c7747ap-2, 0x1.0555f2242e9d4p-2,
    0x1.0863b8f904331p-2, 0x1.0b74d88b242d4p-2, 0x1.0e895598709bdp-2, 0x1.11a134fcf241dp-2,
    0x1.14bc7bb34ee63p-2, 0x1.17db2ed5454e5p-2, 0x1.1afd539c2f04cp-2, 0x1.1e22ef6188113p-2,
    0x1.214c079f7cc9cp-2, 0x1.2478a1f17de86p-2, 0x1.27a8c414db11bp-2, 0x1.2adc73e963fdap-2,
    0x1.2e13b77210764p-2, 0x1.314e94d5af62dp-2, 0x1.348d125f9d19cp-2, 0x1.37cf368081376p-2,
    0x1.3b1507cf143acp-2, 0x1.3e5e8d08ed2d8p-2, 0x1.41abcd1357a18p-2, 0x1.44fccefc324fcp-2,
    0x1.485199fad6ad4p-2, 0x1.4baa357109ca2p-2, 0x1.4f06a8ebf6d91p-2, 0x1.5266fc2533beap-2,
    0x1.55cb3703d00fdp-2, 0x1.5933619d6eebcp-2, 0x1.5c9f84376c241p-2, 0x1.600fa7480d2c6p-2,
    0x1.6383d377be513p-2, 0x1.66fc11a25cbdfp-2, 0x1.6a786ad88de1ep-2, 0x1.6df8e86124ca6p-2,
    0x1.717d93ba96148p-2, 0x1.7506769c7b1e8p-2, 0x1.78939af9252e6p-2, 0x1.7c250aff414acp-2,
    0x1.7fbad11b8d90dp-2, 0x1.8354f7faa0dd5p-2, 0x1.86f38a8ac5ab2p-2, 0x1.8a9693fde9185p-2,
    0x1.8e3e1fcb9f113p-2, 0x1.91ea39b33cb13p-2, 0x1.959aedbe09f8fp-2, 0x1.995048418c0c3p-2,
    0x1.9d0a55e1e93dcp-2, 0x1.a0c923946843bp-2, 0x1.a48cbea20c04bp-2, 0x1.a85534aa4d87dp-2,
    0x1.ac2293a5f5a9ap-2, 0x1.aff4e9ea18550p-2, 0x1.b3cc462b331c8p-2, 0x1.b7a8b78071319p-2,
    0x1.bb8a4d6716d8fp-2, 0x1.bf7117c616a14p-2, 0x1.c35d26f1d2cb5p-2, 0x1.c74e8bb00d7c3p-2,
    0x1.cb45573c0a843p-2, 0x1.cf419b4ae5b69p-2, 0x1.d3436a102107bp-2, 0x1.d74ad6426de2dp-2,
    0x1.db57f320b56abp-2, 0x1.df6ad47763a03p-2, 0x1.e3838ea5f9b7ep-2, 0x1.e7a236a4ec3bfp-2,
    0x1.ebc6e20bd1f4fp-2, 0x1.eff1a717e8f8ep-2, 0x1.f4229cb2f7aecp-2, 0x1.f859da7a900c4p-2,
    0x1.fc9778c7bbd9bp-2, 0x1.006dc85b8cac2p-1, 0x1.02931e18b8228p-1, 0x1.04bbcafa63f2bp-1,
    0x1.06e7dccf03c33p-1, 0x1.091761d995d7dp-1, 0x1.0b4a68d70d9abp-1, 0x1.0d8101041429cp-1,
    0x1.0fbb3a232590fp-1, 0x1.11f9248311f34p-1, 0x1.143ad105ea998p-1, 0x1.16805128639d6p-1,
    0x1.18c9b709b3c4dp-1, 0x1.1b171573fd10ep-1, 0x1.1d687fe549966p-1, 0x1.1fbe0a992961dp-1,
    0x1.2217ca92ff7eep-1, 0x1.2475d5a90db80p-1, 0x1.26d84290504e9p-1, 0x1.293f28e93cd11p-1,
    0x1.2baaa14d79545p-1, 0x1.2e1ac55ea3beap-1, 0x1.308fafd6438ebp-1, 0x1.33097c9703a32p-1,
    0x1.358848bf550e6p-1, 0x1.380c32bda00d2p-1, 0x1.3a955a662cd0bp-1, 0x1.3d23e10af31a1p-1,
    0x1.3fb7e99585b7fp-1, 0x1.425198a355fe0p-1, 0x1.44f114a493676p-1, 0x1.479685fdf500fp-1,
    0x1.4a42172dc5276p-1, 0x1.4cf3f4f494ebep-1, 0x1.4fac4e820b665p-1, 0x1.526b55a656cd3p-1,
    0x1.55313f08d9e44p-1, 0x1.57fe4264c8d8cp-1, 0x1.5ad29acc85c85p-1, 0x1.5dae86f4aff66p-1,
    0x1.6092498802661p-1, 0x1.637e298550c15p-1, 0x1.667272a92e320p-1, 0x1.696f75e513b26p-1,
    0x1.6c7589e635a86p-1, 0x1.6f850baea7aebp-1, 0x1.729e5f43f6d0ep-1, 0x1.75c1f0770d852p-1,
    0x1.78f033ca0b0d2p-1, 0x1.7c29a779c6855p-1, 0x1.7f6ed4b20e2c8p-1, 0x1.82c050f56cf6bp-1,
    0x1.861ebfc37bca8p-1, 0x1.898ad48badefep-1, 0x1.8d0554fe60aa4p-1, 0x1.908f1bd31714bp-1,
    0x1.94291c21b7a43p-1, 0x1.97d4657617abep-1, 0x1.9b9228d24067ep-1, 0x1.9f63bee651fd5p-1,
    0x1.a34aafdf5af0cp-1, 0x1.a748bd550c9dep-1, 0x1.ab5fef17a2502p-1, 0x1.af92a3f6ce8a0p-1,
    0x1.b3e3a8234dd0ep-1, 0x1.b85653a8ff54fp-1, 0x1.bceeb4ee1dc7fp-1, 0x1.c1b1cd9eebae7p-1,
    0x1.c6a5ecea9787cp-1, 0x1.cbd33a8a72de8p-1, 0x1.d144978a119d9p-1, 0x1.d70920657bcefp-1,
    0x1.dd36fa704de92p-1, 0x1.e3f11e027f074p-1, 0x1.eb7545b6ca912p-1, 0x1.f446ac979f084p-1,
    1.0,
};

}  // namespace detail

void Rng::normals(std::span<double> out, double mean, double stddev) {
  detail::normals(engine_, out, mean, stddev);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  std::poisson_distribution<std::uint64_t> d(mean);
  return d(engine_);
}

void Rng::shuffle(std::vector<std::size_t>& idx) {
  std::shuffle(idx.begin(), idx.end(), engine_);
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("Rng::categorical: empty weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("Rng::categorical: weights must sum > 0");
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0) throw std::invalid_argument("Rng::categorical: negative weight");
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace ecthub
