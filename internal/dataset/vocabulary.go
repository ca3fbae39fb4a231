package dataset

// Topic is a coherent interest area from which user queries are drawn. The
// vocabulary below plays the role of the AOL log's topical structure: users
// are assigned a small mixture of topics and phrase their queries from the
// corresponding word pools, which is the property SimAttack exploits (user
// histories are topically coherent and partially overlapping).
type Topic struct {
	Name  string
	Words []string
}

// Topics is the built-in topic vocabulary: 40 areas x ~24 words.
var Topics = []Topic{
	{"health", []string{"symptoms", "diabetes", "blood", "pressure", "cholesterol", "migraine", "allergy", "asthma", "vitamin", "thyroid", "arthritis", "insomnia", "anxiety", "depression", "pregnancy", "flu", "vaccine", "infection", "rash", "headache", "nutrition", "diet", "doctor", "clinic"}},
	{"finance", []string{"mortgage", "refinance", "loan", "credit", "score", "interest", "rates", "savings", "checking", "account", "broker", "stocks", "dividend", "mutual", "funds", "retirement", "pension", "budget", "debt", "bankruptcy", "taxes", "deduction", "audit", "insurance"}},
	{"sports", []string{"football", "baseball", "basketball", "playoffs", "scores", "standings", "roster", "draft", "trade", "coach", "stadium", "tickets", "league", "championship", "tournament", "golf", "tennis", "soccer", "hockey", "nascar", "olympics", "marathon", "workout", "fitness"}},
	{"travel", []string{"flights", "airfare", "hotel", "resort", "vacation", "cruise", "package", "rental", "airport", "passport", "visa", "itinerary", "beach", "island", "paris", "london", "hawaii", "orlando", "disney", "backpacking", "hostel", "luggage", "tours", "sightseeing"}},
	{"cooking", []string{"recipe", "chicken", "casserole", "baking", "oven", "grill", "marinade", "sauce", "pasta", "lasagna", "dessert", "chocolate", "cookies", "bread", "sourdough", "slow", "cooker", "crockpot", "vegetarian", "salad", "soup", "seasoning", "ingredients", "dinner"}},
	{"automotive", []string{"car", "truck", "dealer", "used", "lease", "sedan", "engine", "transmission", "brakes", "tires", "oil", "change", "mileage", "hybrid", "horsepower", "warranty", "recall", "bluebook", "trade", "mechanic", "repair", "parts", "muffler", "battery"}},
	{"music", []string{"lyrics", "album", "band", "concert", "tour", "guitar", "piano", "chords", "sheet", "playlist", "song", "singer", "rock", "country", "jazz", "hip", "hop", "karaoke", "festival", "vinyl", "acoustic", "drummer", "orchestra", "soundtrack"}},
	{"movies", []string{"movie", "showtimes", "theater", "trailer", "actor", "actress", "director", "oscar", "review", "rating", "sequel", "dvd", "rental", "premiere", "comedy", "thriller", "horror", "animation", "documentary", "screenplay", "casting", "boxoffice", "cinema", "film"}},
	{"gardening", []string{"garden", "plants", "seeds", "perennial", "annual", "roses", "tomatoes", "compost", "mulch", "fertilizer", "pruning", "landscaping", "lawn", "weed", "soil", "greenhouse", "herbs", "shrubs", "bulbs", "transplant", "watering", "hedge", "orchid", "vegetable"}},
	{"law", []string{"attorney", "lawyer", "lawsuit", "divorce", "custody", "settlement", "court", "judge", "statute", "liability", "contract", "notary", "will", "probate", "estate", "felony", "misdemeanor", "bail", "appeal", "deposition", "paralegal", "litigation", "damages", "plaintiff"}},
	{"realestate", []string{"homes", "sale", "realtor", "listing", "foreclosure", "appraisal", "closing", "escrow", "inspection", "condo", "townhouse", "apartment", "rent", "landlord", "tenant", "deed", "zoning", "acreage", "property", "neighborhood", "schools", "commute", "downpayment", "equity"}},
	{"technology", []string{"computer", "laptop", "desktop", "monitor", "printer", "wireless", "router", "broadband", "software", "download", "antivirus", "spyware", "firewall", "upgrade", "memory", "processor", "keyboard", "driver", "install", "backup", "email", "browser", "password", "website"}},
	{"fashion", []string{"dress", "shoes", "handbag", "jeans", "designer", "boutique", "outfit", "jewelry", "necklace", "earrings", "makeup", "lipstick", "mascara", "perfume", "hairstyle", "salon", "manicure", "trends", "runway", "model", "accessories", "scarf", "sunglasses", "boots"}},
	{"parenting", []string{"baby", "toddler", "newborn", "diaper", "stroller", "crib", "daycare", "preschool", "homework", "allowance", "chores", "discipline", "tantrum", "potty", "training", "teething", "formula", "breastfeeding", "pediatrician", "milestones", "playdate", "babysitter", "adoption", "twins"}},
	{"pets", []string{"dog", "puppy", "cat", "kitten", "breed", "groomer", "veterinarian", "kennel", "leash", "litter", "aquarium", "goldfish", "hamster", "parrot", "rabbit", "training", "obedience", "shelter", "adoption", "fleas", "heartworm", "pedigree", "terrier", "retriever"}},
	{"education", []string{"college", "university", "tuition", "scholarship", "financial", "aid", "degree", "diploma", "transcript", "admissions", "campus", "dormitory", "professor", "syllabus", "semester", "major", "graduate", "undergraduate", "sat", "gpa", "online", "courses", "textbooks", "alumni"}},
	{"jobs", []string{"resume", "interview", "salary", "career", "employer", "hiring", "openings", "application", "recruiter", "benefits", "promotion", "layoff", "unemployment", "severance", "internship", "parttime", "fulltime", "overtime", "workplace", "manager", "references", "cover", "letter", "negotiation"}},
	{"weather", []string{"forecast", "radar", "hurricane", "tornado", "storm", "rainfall", "snowfall", "blizzard", "temperature", "humidity", "barometer", "frost", "drought", "flood", "lightning", "thunder", "heatwave", "windchill", "climate", "seasonal", "precipitation", "warning", "advisory", "satellite"}},
	{"history", []string{"history", "civil", "war", "revolution", "ancient", "rome", "egypt", "medieval", "renaissance", "colonial", "independence", "constitution", "president", "dynasty", "empire", "archaeology", "artifacts", "museum", "timeline", "biography", "holocaust", "pioneers", "treaty", "monarchy"}},
	{"science", []string{"physics", "chemistry", "biology", "astronomy", "planets", "telescope", "molecule", "atom", "element", "periodic", "evolution", "genetics", "dna", "experiment", "laboratory", "theory", "quantum", "gravity", "ecosystem", "photosynthesis", "geology", "fossil", "microscope", "neuron"}},
	{"religion", []string{"church", "bible", "scripture", "prayer", "sermon", "pastor", "worship", "gospel", "faith", "christian", "catholic", "protestant", "baptist", "synagogue", "torah", "mosque", "quran", "buddhist", "meditation", "spiritual", "hymn", "verse", "parish", "missionary"}},
	{"politics", []string{"election", "senator", "congress", "governor", "campaign", "ballot", "candidate", "primary", "debate", "policy", "legislation", "veto", "amendment", "lobbyist", "democrat", "republican", "liberal", "conservative", "poll", "approval", "immigration", "healthcare", "reform", "budget"}},
	{"celebrities", []string{"celebrity", "gossip", "paparazzi", "tabloid", "scandal", "engagement", "wedding", "divorce", "redcarpet", "interview", "hollywood", "famous", "star", "singer", "heiress", "supermodel", "tvhost", "breakup", "rehab", "mansion", "yacht", "entourage", "publicist", "autograph"}},
	{"games", []string{"cheats", "walkthrough", "playstation", "xbox", "nintendo", "console", "multiplayer", "arcade", "puzzle", "sudoku", "crossword", "poker", "blackjack", "casino", "solitaire", "chess", "checkers", "bingo", "trivia", "scrabble", "dice", "strategy", "roleplaying", "simulation"}},
	{"diy", []string{"plumbing", "faucet", "drywall", "paint", "primer", "hardwood", "flooring", "tile", "grout", "cabinet", "countertop", "remodel", "renovation", "insulation", "gutter", "roofing", "shingles", "deck", "fence", "toolbox", "cordless", "drill", "sander", "workbench"}},
	{"shopping", []string{"coupon", "discount", "clearance", "outlet", "bargain", "rebate", "shipping", "catalog", "wholesale", "auction", "bid", "marketplace", "storefront", "giftcard", "registry", "layaway", "refund", "exchange", "warranty", "pricematch", "deals", "promo", "voucher", "checkout"}},
	{"photography", []string{"camera", "digital", "lens", "zoom", "tripod", "shutter", "aperture", "exposure", "megapixel", "portrait", "landscape", "darkroom", "negatives", "prints", "framing", "photoshop", "editing", "filters", "lighting", "studio", "wedding", "photographer", "album", "slideshow"}},
	{"fishing", []string{"fishing", "bait", "tackle", "lure", "rod", "reel", "bass", "trout", "salmon", "catfish", "walleye", "fly", "charter", "lake", "river", "pond", "boat", "kayak", "license", "limit", "hook", "sinker", "bobber", "spawn"}},
	{"hunting", []string{"hunting", "deer", "elk", "turkey", "duck", "season", "rifle", "shotgun", "bow", "arrow", "camouflage", "blind", "stand", "scent", "decoy", "caliber", "ammunition", "scope", "taxidermy", "antler", "tracking", "wilderness", "permit", "gamewarden"}},
	{"crafts", []string{"knitting", "crochet", "yarn", "quilting", "fabric", "sewing", "pattern", "embroidery", "scrapbook", "stamps", "beads", "jewelry", "pottery", "ceramics", "woodworking", "carving", "origami", "stencil", "glue", "canvas", "easel", "watercolor", "sketch", "mosaic"}},
	{"astrology", []string{"horoscope", "zodiac", "aries", "taurus", "gemini", "scorpio", "sagittarius", "capricorn", "aquarius", "pisces", "libra", "virgo", "compatibility", "tarot", "psychic", "numerology", "palmistry", "birthchart", "retrograde", "fullmoon", "eclipse", "crystals", "aura", "medium"}},
	{"weddings", []string{"wedding", "bride", "groom", "engagement", "ring", "venue", "reception", "caterer", "florist", "bouquet", "invitations", "registry", "bridesmaid", "tuxedo", "honeymoon", "anniversary", "vows", "officiant", "centerpiece", "photographer", "banquet", "toast", "veil", "gown"}},
	{"genealogy", []string{"genealogy", "ancestry", "surname", "census", "immigration", "naturalization", "birthrecord", "obituary", "cemetery", "headstone", "familytree", "lineage", "descendants", "heritage", "archives", "parish", "records", "maiden", "name", "pedigree", "homestead", "passenger", "manifest", "ellis"}},
	{"insurance", []string{"insurance", "premium", "deductible", "claim", "adjuster", "coverage", "policy", "liability", "collision", "comprehensive", "homeowners", "renters", "term", "life", "annuity", "beneficiary", "underwriting", "quote", "actuary", "copay", "network", "provider", "medicare", "medicaid"}},
	{"fitness", []string{"gym", "treadmill", "elliptical", "dumbbell", "barbell", "yoga", "pilates", "aerobics", "cardio", "protein", "supplement", "creatine", "calories", "metabolism", "trainer", "membership", "stretching", "marathon", "triathlon", "cycling", "swimming", "abs", "squats", "pushups"}},
	{"electronics", []string{"television", "plasma", "lcd", "stereo", "speakers", "subwoofer", "amplifier", "headphones", "mp3", "player", "ipod", "camcorder", "dvd", "bluray", "remote", "cables", "hdmi", "antenna", "satellite", "receiver", "surround", "projector", "turntable", "walkman"}},
	{"books", []string{"novel", "paperback", "hardcover", "author", "bestseller", "mystery", "romance", "fantasy", "biography", "memoir", "bookclub", "library", "chapter", "sequel", "trilogy", "publisher", "manuscript", "audiobook", "bookstore", "poetry", "anthology", "fiction", "nonfiction", "literature"}},
	{"boating", []string{"boat", "sailboat", "pontoon", "yacht", "marina", "dock", "mooring", "anchor", "hull", "outboard", "motor", "propeller", "navigation", "chartplotter", "lifejacket", "regatta", "sailing", "cruising", "trailer", "winterize", "fiberglass", "deckhand", "knots", "harbor"}},
	{"camping", []string{"camping", "tent", "sleeping", "bag", "campground", "campfire", "lantern", "backpack", "hiking", "trail", "compass", "canteen", "firewood", "marshmallow", "rv", "camper", "wilderness", "ranger", "reservation", "propane", "stove", "cooler", "bugspray", "binoculars"}},
	{"taxes", []string{"irs", "refund", "filing", "extension", "withholding", "exemption", "dependent", "deduction", "itemized", "standard", "w2", "1099", "schedule", "capital", "gains", "estimated", "quarterly", "accountant", "cpa", "audit", "amended", "return", "taxable", "bracket"}},
}

// GeneralWords are query qualifiers common across all users; they appear in
// real logs regardless of topic ("free download", "best price", "how to").
var GeneralWords = []string{
	"free", "best", "cheap", "new", "top", "online", "find", "buy",
	"compare", "reviews", "pictures", "guide", "help", "info", "local",
	"near", "home", "official", "sale", "2006", "list", "how",
}

// NewsWords is the vocabulary of the simulated RSS/news feeds used by the
// TrackMeNot substitute. It is mostly disjoint from the topical query
// vocabulary, which reproduces the paper's Figure 1 observation that
// RSS-derived fake queries look nothing like real user queries.
var NewsWords = []string{
	"parliament", "diplomat", "sanctions", "ceasefire", "insurgency",
	"pandemic", "summit", "communique", "referendum", "coalition",
	"austerity", "inflation", "deficit", "embargo", "tariff",
	"extradition", "indictment", "subpoena", "testimony", "impeachment",
	"envoy", "consulate", "ambassador", "treaty", "accord",
	"peacekeeping", "militia", "warlord", "junta", "coup",
	"dissident", "asylum", "refugee", "genocide", "tribunal",
	"oligarch", "magnate", "conglomerate", "merger", "acquisition",
	"bailout", "stimulus", "regulator", "watchdog", "whistleblower",
	"espionage", "surveillance", "encryption", "malware", "botnet",
	"epidemic", "quarantine", "outbreak", "contagion", "antiviral",
	"seismic", "aftershock", "epicenter", "tsunami", "evacuation",
}

// DictionaryWords is the keyword dictionary the GooPIR substitute samples
// from: a broad mixed pool, the way GooPIR used a general dictionary
// rather than user-derived terms.
var DictionaryWords = []string{
	"abacus", "bazaar", "cascade", "dirigible", "ebony", "fulcrum",
	"gazebo", "harbinger", "isthmus", "juggernaut", "kaleidoscope",
	"labyrinth", "mandolin", "nebula", "obelisk", "palindrome",
	"quarry", "rhapsody", "sonnet", "tundra", "umbrella", "vortex",
	"walnut", "xylophone", "yearling", "zephyr", "almanac", "brocade",
	"citadel", "dulcimer", "eiderdown", "filament", "gondola",
	"hacienda", "ingot", "jamboree", "kiln", "lagoon", "marzipan",
	"nimbus", "oracle", "parapet", "quiver", "rotunda", "sextant",
	"terrace", "urn", "vellum", "wharf", "yoke",
}

// DomainSuffixes builds plausible URLs for clicks and corpus documents.
var DomainSuffixes = []string{
	"central", "hub", "world", "zone", "depot", "guide", "source",
	"place", "spot", "net",
}
